#!/usr/bin/env bash
# End-to-end smoke test for the naqcd compile daemon.
#
# Drives a real daemon over its Unix socket through the full
# production story and emits a bench-JSON envelope gated by
# bench_check.py's exact-match counters:
#
#   1. submit every Table-2 benchmark through naqc-client and diff
#      the compiled QASM against one-shot naqc (bit-identity,
#      modulo the leading // name comment); `wait` and `status` on
#      each finished job, whose program the daemon has released by
#      then, must repeat the submit's result line,
#   2. reload a second calibration day (zero-downtime rollover) and
#      re-verify against one-shot naqc on that day,
#   3. restart the daemon on the same cache directory and assert the
#      whole working set is served from the persistent disk cache,
#   4. submit Toffoli with naqc's own Sabre flags and diff it against
#      one-shot naqc given the same flags; then submit malformed QASM
#      inline, out-of-range and malformed protocol values (a budget
#      above naqcd's limit, `reload --day abc`) and a 65 MiB payload,
#      over naqcd's 64 MiB cap: each must get an err reply while the
#      daemon keeps answering; an R-SMT* job with a 0 ms budget must
#      be answered within 20 s,
#   5. open and close 300 connections: the daemon's virtual size
#      must not grow with them,
#   6. clean shutdown.
#
# Usage: daemon_smoke.sh BUILD_DIR OUT_JSON

set -u

BUILD_DIR=${1:?usage: daemon_smoke.sh BUILD_DIR OUT_JSON}
OUT_JSON=${2:?usage: daemon_smoke.sh BUILD_DIR OUT_JSON}

NAQC="$BUILD_DIR/naqc"
NAQCD="$BUILD_DIR/naqcd"
CLIENT="$BUILD_DIR/naqc-client"

WORK=$(mktemp -d)
SOCK="$WORK/naqcd.sock"
CACHE="$WORK/cache"
DAEMON_PID=""

BENCHES=(BV4 BV6 BV8 HS2 HS4 HS6 Toffoli Fredkin Or Peres QFT Adder)

FAILURES=0
IDENTICAL_D0=0
IDENTICAL_D1=0
RESTART_DISK_HITS=0

fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

stop_daemon() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null
        wait "$DAEMON_PID" 2>/dev/null
    fi
    DAEMON_PID=""
}

cleanup() {
    stop_daemon
    rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {
    "$NAQCD" --socket "$SOCK" --cache-dir "$CACHE" \
        2>> "$WORK/daemon.log" &
    DAEMON_PID=$!
    # The daemon builds its first machine snapshot before listening;
    # wait for the socket rather than sleeping a fixed time.
    for _ in $(seq 1 300); do
        [ -S "$SOCK" ] && "$CLIENT" --socket "$SOCK" ping \
            > /dev/null 2>&1 && return 0
        sleep 0.1
    done
    fail "daemon did not come up (see $WORK/daemon.log)"
    return 1
}

# stat_counter NAME: extract NAME=value from the `ok ...` stats
# reply (naqc-client prints the reply line on stderr).
stat_counter() {
    "$CLIENT" --socket "$SOCK" stats 2>&1 | grep '^ok ' \
        | sed -n "s/.* $1=\([0-9]*\).*/\1/p" | head -1
}

# verify_bench NAME DAY [FLAG...]: daemon output vs one-shot naqc, both
# given the same compiler-option flags.
verify_bench() {
    local name=$1 day=$2
    shift 2
    "$NAQC" --dump-benchmark "$name" > "$WORK/$name.qasm" \
        || { fail "$name: --dump-benchmark"; return 1; }
    "$NAQC" --qasm "$WORK/$name.qasm" --day "$day" "$@" \
        > "$WORK/$name.oneshot.qasm" 2>/dev/null \
        || { fail "$name: one-shot naqc (day $day)"; return 1; }
    "$CLIENT" --socket "$SOCK" submit --bench "$name" --wait "$@" \
        > "$WORK/$name.daemon.qasm" 2> "$WORK/$name.result" \
        || { fail "$name: daemon submit ($(cat "$WORK/$name.result"))"
             return 1; }
    # The leading comment carries the circuit name ("BV4" vs the
    # one-shot CLI's "cli-program"); the program below it must match
    # byte for byte.
    if ! diff <(grep -v '^//' "$WORK/$name.daemon.qasm") \
              <(grep -v '^//' "$WORK/$name.oneshot.qasm") \
              > /dev/null; then
        fail "$name $*: daemon output differs from one-shot naqc (day $day)"
        return 1
    fi
    return 0
}

# same_reply NAME: `wait` and `status` on NAME's finished job print
# the result line its `submit --wait` got.
same_reply() {
    local name=$1 line id cmd
    line=$(grep '^ok ' "$WORK/$name.result")
    id=$(sed -n 's/^ok id=\([0-9]*\) .*/\1/p' <<< "$line")
    for cmd in wait status; do
        [ "$("$CLIENT" --socket "$SOCK" "$cmd" "$id" 2>&1)" = "$line" ] \
            || fail "$name: '$cmd $id' differs from the submit reply"
    done
}

# vm_size_kb: the daemon's VmSize from /proc.
vm_size_kb() {
    sed -n 's/^VmSize:[[:space:]]*\([0-9]*\) kB/\1/p' \
        "/proc/$DAEMON_PID/status"
}

echo "== phase 1: cold daemon, day 0, bit-identity =="
start_daemon || exit 1
for b in "${BENCHES[@]}"; do
    verify_bench "$b" 0 && IDENTICAL_D0=$((IDENTICAL_D0 + 1)) \
        && same_reply "$b"
done

echo "== phase 2: zero-downtime rollover to day 1 =="
"$CLIENT" --socket "$SOCK" reload --day 1 > /dev/null 2>&1 \
    || fail "reload --day 1"
for b in "${BENCHES[@]}"; do
    verify_bench "$b" 1 && IDENTICAL_D1=$((IDENTICAL_D1 + 1))
done
REJECTED=$(stat_counter rejected)
[ "${REJECTED:-0}" = "0" ] || fail "rollover rejected jobs: $REJECTED"
STORES=$(stat_counter disk_stores)

echo "== phase 3: restart, warm disk cache =="
"$CLIENT" --socket "$SOCK" shutdown > /dev/null 2>&1 \
    || fail "clean shutdown request"
wait "$DAEMON_PID" 2>/dev/null
DAEMON_RC=$?
DAEMON_PID=""
[ "$DAEMON_RC" = "0" ] || fail "daemon exit code $DAEMON_RC"
[ -S "$SOCK" ] && fail "socket not unlinked on shutdown"

start_daemon || exit 1
for b in "${BENCHES[@]}"; do
    "$CLIENT" --socket "$SOCK" submit --bench "$b" --wait \
        > /dev/null 2> "$WORK/$b.restart" || fail "$b: restart submit"
    grep -q "cache=disk" "$WORK/$b.restart" \
        && RESTART_DISK_HITS=$((RESTART_DISK_HITS + 1))
done
# Acceptance bar: >= 90% of the working set from the persistent
# cache. With a healthy cache directory it is exactly 100%.
[ "$RESTART_DISK_HITS" -ge 11 ] \
    || fail "only $RESTART_DISK_HITS/12 restart jobs hit the disk cache"
CORRUPT=$(stat_counter disk_corrupt)
[ "${CORRUPT:-0}" = "0" ] || fail "corrupt cache entries: $CORRUPT"
# Every restart disk hit must have passed the translation validator,
# and none may have needed healing (the cache directory is healthy).
VERIFIED=$(stat_counter disk_verified)
HEALED=$(stat_counter disk_healed)

echo "== phase 4: option keys and hostile input =="
# naqc's flags reach naqcd through naqc-client: the restarted daemon
# serves day 0.
verify_bench Toffoli 0 --mapper sabre --sabre-iterations 0
printf 'OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];\n' > "$WORK/bad1.qasm"
printf 'OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n' > "$WORK/bad2.qasm"
printf 'OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[7];\n' \
    > "$WORK/bad3.qasm"
for f in bad1 bad2 bad3; do
    "$CLIENT" --socket "$SOCK" submit --qasm "$WORK/$f.qasm" --wait \
        > /dev/null 2> "$WORK/$f.result"
    rc=$?
    [ "$rc" = "1" ] && grep -q "^err reason=qasm_line" "$WORK/$f.result" \
        || fail "$f: expected an err reply, got exit $rc: $(cat "$WORK/$f.result")"
done
"$CLIENT" --socket "$SOCK" submit --bench BV4 --portfolio \
    --portfolio-deadline-ms 4294967297 > /dev/null 2> "$WORK/deadline.result"
rc=$?
[ "$rc" = "1" ] && grep -q "^err reason=bad_portfolio_deadline_ms" \
    "$WORK/deadline.result" \
    || fail "deadline above UINT_MAX: exit $rc: $(cat "$WORK/deadline.result")"
# A request may lower a job's budget but never raise it.
for flags in "--timeout 60001" "--sabre-iterations 4"; do
    "$CLIENT" --socket "$SOCK" submit --bench BV4 $flags --wait \
        > /dev/null 2> "$WORK/limit.result"
    rc=$?
    [ "$rc" = "1" ] && grep -q "^err reason=" "$WORK/limit.result" \
        || fail "$flags: exit $rc: $(cat "$WORK/limit.result")"
done
# A zero budget is still a budget: z3 reads a 0 ms timeout as no
# limit, so the solver must be given at least 1 ms.
SECONDS=0
"$CLIENT" --socket "$SOCK" submit --bench Adder --mapper 'rsmt*' \
    --timeout 0 --wait > /dev/null 2> "$WORK/zero.result"
rc=$?
[ "$rc" = "0" ] && [ "$SECONDS" -lt 20 ] \
    && grep -q "^ok " "$WORK/zero.result" \
    || fail "--timeout 0: exit $rc after ${SECONDS} s: $(cat "$WORK/zero.result")"
"$CLIENT" --socket "$SOCK" reload --day abc > /dev/null 2> "$WORK/day.result"
rc=$?
[ "$rc" = "1" ] && grep -q "^err reason=bad-day" "$WORK/day.result" \
    || fail "reload --day abc: exit $rc: $(cat "$WORK/day.result")"
# naqcd reads an oversized payload to its end, drops it and refuses
# the submit.
yes 'h q[0];' | head -c $((65 << 20)) > "$WORK/huge.qasm"
"$CLIENT" --socket "$SOCK" submit --qasm "$WORK/huge.qasm" --wait \
    > /dev/null 2> "$WORK/huge.result"
rc=$?
rm -f "$WORK/huge.qasm"
[ "$rc" = "1" ] && grep -q "^err reason=too-large" "$WORK/huge.result" \
    || fail "65 MiB payload: exit $rc: $(head -c 300 "$WORK/huge.result")"
"$CLIENT" --socket "$SOCK" ping 2>&1 | grep -q "^ok pong" \
    || fail "daemon stopped answering after hostile input"

echo "== phase 5: connection churn =="
# Each finished connection's thread must be joined: an unjoined one
# keeps its stack (8 MB of address space) mapped.
VM_BEFORE=$(vm_size_kb)
for _ in $(seq 1 300); do
    "$CLIENT" --socket "$SOCK" ping > /dev/null 2>&1 \
        || { fail "ping during connection churn"; break; }
done
VM_AFTER=$(vm_size_kb)
[ $((VM_AFTER - VM_BEFORE)) -lt $((256 * 1024)) ] \
    || fail "VmSize grew from $VM_BEFORE to $VM_AFTER kB over 300 connections"

"$CLIENT" --socket "$SOCK" shutdown > /dev/null 2>&1 \
    || fail "final shutdown request"
wait "$DAEMON_PID" 2>/dev/null || fail "final daemon exit"
DAEMON_PID=""

cat > "$OUT_JSON" <<EOF
{
  "schema_version": 1,
  "bench": "daemon_smoke",
  "entries": [
    {
      "name": "daemon_smoke",
      "metrics": {
        "identical_day0_count": $IDENTICAL_D0,
        "identical_day1_count": $IDENTICAL_D1,
        "restart_disk_hit_count": $RESTART_DISK_HITS,
        "disk_store_count": ${STORES:-0},
        "verified_on_load_count": ${VERIFIED:-0},
        "healed_count": ${HEALED:-0},
        "failure_count": $FAILURES
      }
    }
  ]
}
EOF
echo "wrote $OUT_JSON"

if [ "$FAILURES" -ne 0 ]; then
    echo "daemon smoke: $FAILURES failure(s)" >&2
    sed -n '1,50p' "$WORK/daemon.log" >&2
    exit 1
fi
echo "daemon smoke: all checks passed"
