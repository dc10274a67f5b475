from .commands import run

run()
