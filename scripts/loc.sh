#!/bin/sh
# loc.sh — the Go code-size counts CHANGES.md quotes.
#
# Counts non-blank lines that are not // comments in the git-tracked
# .go files outside bench/ (a separate module), split into non-test
# files and _test.go files:
#
#   scripts/loc.sh
#   non-test Go lines: 16,946
#   test Go lines: 13,994
set -eu

cd "$(dirname "$0")/.."

# count prints the line count of the tracked Go files whose names pass
# `grep $1 '_test\.go$'` (-v selects non-test files, -e test files).
count() {
    git ls-files -z -- '*.go' ':(exclude)bench/' |
        tr '\0' '\n' | grep "$1" '_test\.go$' | tr '\n' '\0' |
        xargs -0 cat |
        grep -v '^[[:space:]]*$' | grep -v '^[[:space:]]*//' | wc -l |
        awk '{ n = $1; s = ""
               while (length(n) > 3) { s = "," substr(n, length(n) - 2) s; n = substr(n, 1, length(n) - 3) }
               print n s }'
}

echo "non-test Go lines: $(count -v)"
echo "test Go lines: $(count -e)"
