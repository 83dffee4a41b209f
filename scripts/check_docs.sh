#!/bin/sh
# check_docs.sh — fails the build when docs/OPERATIONS.md rots.
#
# The operator reference must track the code, so this script extracts the
# machine-checkable facts from the sources and greps for each in the doc:
#
#   1. every endpoint row of server.Endpoints() ("METHOD /path"),
#   2. every `domd serve` flag (as `domd serve -h` lists them),
#   3. every faultinject failpoint name,
#   4. the README link to the operations doc,
#   5. every served path and every `domd` subcommand in README.md — the
#      README's tour of the API surface may lag the code no more than
#      the operations doc may.
#
# Metric-name agreement is NOT checked here anymore: the domdlint
# `metriccatalog` analyzer walks the type-checked registration sites and
# enforces both directions (undocumented metric, stale doc row) with
# file:line findings — `make docs` runs it alongside this script.
#
# Run via `make docs` (part of `make check`). POSIX sh, grep, sed, awk,
# plus `go run` for the serve flag list.
set -eu

cd "$(dirname "$0")/.."
DOC=docs/OPERATIONS.md
fail=0

[ -f "$DOC" ] || { echo "check_docs: $DOC missing"; exit 1; }

# 1. Endpoints: rows of the Endpoints() table in internal/server/obs.go.
endpoints=$(sed -n 's/^[[:space:]]*{"\([A-Z]*\)", "\(\/[a-z\/]*\)".*/\1 \2/p' internal/server/obs.go)
[ -n "$endpoints" ] || { echo "check_docs: extracted no endpoints from internal/server/obs.go"; exit 1; }
for e in $(printf '%s\n' "$endpoints" | tr ' ' '~'); do
	pat=$(printf '%s' "$e" | tr '~' ' ')
	if ! grep -qF "$pat" "$DOC"; then
		echo "check_docs: endpoint \"$pat\" (server.Endpoints) not documented in $DOC"
		fail=1
	fi
done

# 2. Serve flags: every flag `domd serve -h` prints, i.e. exactly the
# flag set the binary registers for serve.
serve_flags=$(go run ./cmd/domd serve -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p')
[ -n "$serve_flags" ] || { echo "check_docs: extracted no serve flags from domd serve -h"; exit 1; }
for f in $serve_flags; do
	if ! grep -q -- "\`-$f\`" "$DOC"; then
		echo "check_docs: serve flag -$f not documented in $DOC"
		fail=1
	fi
done

# 3. Failpoint names: Fail* constants in wal and statusq.
failpoints=$(grep -rho 'Fail[A-Za-z]* = "[a-z.]*"' internal/wal/ internal/statusq/ |
	sed 's/.*= "\(.*\)"/\1/' | sort -u)
[ -n "$failpoints" ] || { echo "check_docs: extracted no failpoint names"; exit 1; }
for fp in $failpoints; do
	if ! grep -qF "$fp" "$DOC"; then
		echo "check_docs: failpoint $fp not documented in $DOC"
		fail=1
	fi
done

# 4. The README must point operators at the doc.
if ! grep -q "docs/OPERATIONS.md" README.md; then
	echo "check_docs: README.md does not link docs/OPERATIONS.md"
	fail=1
fi

# 5. README surface drift: every served path (from the same Endpoints()
# table) and every `domd` subcommand (from the dispatch table in
# cmd/domd/main.go) must be mentioned somewhere in the README.
paths=$(printf '%s\n' "$endpoints" | awk '{print $2}' | sort -u)
for p in $paths; do
	if ! grep -qF "$p" README.md; then
		echo "check_docs: endpoint path $p (server.Endpoints) not mentioned in README.md"
		fail=1
	fi
done
subcommands=$(awk '/^var subcommands = /,/^}$/' cmd/domd/main.go |
	sed -n 's/^[[:space:]]*{"\([a-z]*\)", .*/\1/p')
[ -n "$subcommands" ] || { echo "check_docs: extracted no subcommands from cmd/domd/main.go"; exit 1; }
for s in $subcommands; do
	if ! grep -q "domd $s" README.md; then
		echo "check_docs: subcommand \"domd $s\" not mentioned in README.md"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "check_docs: FAILED — update docs/OPERATIONS.md to match the code"
	exit 1
fi
echo "check_docs: OK"
