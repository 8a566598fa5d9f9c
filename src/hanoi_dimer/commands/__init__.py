"""One module per CLI command, each imported only when its command runs.

A module's run(args) is the command's body; cli builds the parser and
dispatches to it.  Each body looks the library names it calls up through
cli (cli._library), so that a name rebound on cli is the one called.
"""
