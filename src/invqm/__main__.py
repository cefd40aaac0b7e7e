"""`python -m invqm ...` runs the command line."""
from .cli import main
raise SystemExit(main())
