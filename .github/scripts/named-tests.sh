#!/usr/bin/env bash
# Run one named-filter test command and fail unless it ran at least one
# test. A filter that matches nothing (say, after a test rename) prints
# only `test result: ok. 0 passed` lines and would otherwise pass.
#
# Usage: .github/scripts/named-tests.sh cargo test -q -p sider_stats g_and_g_prime
set -o pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log" || exit 1
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "error: no test ran: $*" >&2
    exit 1
fi
