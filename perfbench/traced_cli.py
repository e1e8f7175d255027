"""One traced CLI invocation: `python traced_cli.py SPANS_JSON -- CLI_ARGS...`.

Imports blochwalk, wraps the layer functions where `blochwalk.cli` and the
layers below it look them up, runs `blochwalk.cli.main` inside a root span
`cli.main` (so the import is not part of the operation), and writes the
spans to SPANS_JSON when the run ends.  The exit code is the CLI's.
"""

import sys

import blochwalk.cli

import tracer


def main() -> int:
    spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    rec = tracer.Tracer()
    rec.install(tracer.CLI_BINDINGS + tracer.INNER_BINDINGS)
    with rec.span("cli.main"):
        code = blochwalk.cli.main(cli_args)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
