"""``python -m lstaq``: the ``lstaq`` command line."""
from lstaq.cli import main
raise SystemExit(main())
