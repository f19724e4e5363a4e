#!/usr/bin/env bash
# timing_diff_test.sh — `ptquery --timing ... diff` reports the diagnosis.
#
# A diff runs a burst of statements, so the last statement's trace says
# nothing about it. This loads two simulated IRS runs and checks that
# --timing prints the diagnosis's own time (Stats::diff_us) as
# "timing: diff=<ms>ms (wall <ms>ms)", locally and, marked [remote], under
# --connect to a ptserverd serving the same store; that both diffs print
# the same report; and that other commands still print the statement trace.
#
# Usage: timing_diff_test.sh <cli-bin-dir>
set -u

BIN="$(cd "${1:?usage: timing_diff_test.sh <cli-bin-dir>}" && pwd)"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cd "$WORK" || fail "no work dir"
"$BIN/ptgen" irs run1 frost 4 1 > /dev/null || fail "ptgen run1"
"$BIN/ptgen" irs run2 frost 4 2 > /dev/null || fail "ptgen run2"
printf "irs run1 frost\nirs run2 frost\n" > index.txt
"$BIN/ptdfgen" index.txt ptdf > /dev/null || fail "ptdfgen"
"$BIN/ptdfload" store.db ptdf/*.ptdf > /dev/null || fail "ptdfload"
A=irs-frost-np4-s1
B=irs-frost-np4-s2

# check_line <file> <prefix> — the one timing line must read
# "timing:<prefix> diff=<x>ms (wall <y>ms)" with x <= y for a local run.
check_line() {
  local line
  line="$(grep '^timing:' "$1")"
  [ "$(grep -c '^timing:' "$1")" = 1 ] || fail "expected one timing line in: $(cat "$1")"
  printf '%s\n' "$line" | grep -Eq "^timing:$2 diff=[0-9]+\.[0-9]{3}ms \(wall [0-9]+\.[0-9]{3}ms\)$" \
    || fail "timing line should report the diagnosis, got: $line"
}

"$BIN/ptquery" --timing store.db diff "$A" "$B" --top 3 > local.out 2> local.err \
  || fail "local diff exited $?: $(cat local.err)"
check_line local.err ""
grep -q 'results (A / B):' local.out || fail "local diff printed no report"
awk '/^timing:/ { gsub(/diff=|ms|\(wall|\)/, " "); if ($2 + 0 > $3 + 0) exit 1 }' local.err \
  || fail "diagnosis time exceeds the process wall time: $(cat local.err)"

"$BIN/ptserverd" --listen 127.0.0.1:0 --workers 2 store.db > srv.out 2> srv.err &
SRV_PID=$!
PORT=""
for _ in $(seq 1 200); do
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' srv.out)"
  [ -n "$PORT" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || fail "ptserverd died at startup: $(cat srv.err)"
  sleep 0.02
done
[ -n "$PORT" ] || fail "no listening line from ptserverd"

"$BIN/ptquery" --timing --connect "127.0.0.1:$PORT" diff "$A" "$B" --top 3 \
  > remote.out 2> remote.err || fail "remote diff exited $?: $(cat remote.err)"
check_line remote.err " \[remote\]"
cmp -s local.out remote.out || fail "local and remote diff reports differ"

# Other commands keep the statement trace.
"$BIN/ptquery" --timing --connect "127.0.0.1:$PORT" sql "SELECT COUNT(*) FROM metric" \
  > /dev/null 2> sql.err || fail "remote sql exited $?"
grep -Eq '^timing: \[remote\] parse=.* execute=.* rows=' sql.err \
  || fail "sql should keep the statement trace: $(cat sql.err)"

kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "ptserverd did not drain cleanly"
SRV_PID=""
echo "timing_diff_test: ok"
