"""``python -m fairfront``: the command-line front end, as the ``fairfront`` script runs it."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
