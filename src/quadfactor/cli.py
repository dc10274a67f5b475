"""The in-process entry point: `main(argv)` runs one command and returns
its exit code.  Importing this module loads every layer, so a caller
that runs many commands in one process, or wraps the layers' functions,
finds them all in sys.modules before its first call.  `python -m
quadfactor` and the installed script enter through quadfactor.commands,
which loads only what a command runs."""

from . import (commands, errors, extring, factor, ideals, kpoly, parse,
               qint, rpoly, suite, witness, zpoly)

# every import is read here, so none of them reads as unused
LAYERS = (errors, qint, zpoly, kpoly, factor, rpoly, witness, parse, ideals,
          extring, suite)
main = commands.main
