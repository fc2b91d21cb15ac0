"""`python -m monofilt`: the monofilt command line."""
from .cli import main

main()
