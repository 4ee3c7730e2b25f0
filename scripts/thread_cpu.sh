#!/usr/bin/env bash
# Where a benchmark run's CPU and thread wake-ups go, per thread role.
#
#   scripts/thread_cpu.sh <benchmark-binary> <workload> <seconds>
#
# Runs `<benchmark-binary> --workload <workload> --seconds <seconds>`
# (untraced) and, over a 5 s window in the middle of its timed window,
# reads every thread's on-CPU time (/proc/<pid>/task/<tid>/schedstat) and
# its voluntary and involuntary context switches (.../status). Prints, per
# thread role — the coordinator, each worker, the closed-loop client
# sessions, the service timer, the network threads — CPU µs and context
# switches per query, a query count being the run's reported `qps` × 5 s.
# A voluntary switch is a thread going to sleep; each costs a wake-up.
#
# Build the binary with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# (it lands in benchmark/target/release/graphdance-benchmark). <seconds> ≥ 7.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <benchmark-binary> <workload> <seconds>" >&2
    exit 2
fi
bin=$1 workload=$2 secs=$3
window=5
warmup=2 # the benchmark's untimed warm-up before the timed window
if [ "$secs" -lt $((window + 2)) ]; then
    echo "seconds must be at least $((window + 2))" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$bin" --workload "$workload" --seconds "$secs" --trace 0 >"$tmp/out" 2>&1 &
pid=$!
comm=$(cat "/proc/$pid/comm")

# One line per thread: tid, name, on-CPU ns, voluntary, involuntary.
snapshot() {
    local t name
    for t in "/proc/$pid/task/"*; do
        name=$(cat "$t/comm" 2>/dev/null) || continue
        {
            printf '%s %s ' "${t##*/}" "$name"
            cut -d' ' -f1 "$t/schedstat"
            awk '/^voluntary_ctxt_switches/ { v = $2 }
                 /^nonvoluntary_ctxt_switches/ { n = $2 }
                 END { print v, n }' "$t/status"
        } 2>/dev/null | paste -sd' '
    done >"$1"
}

# The client sessions are the only threads besides main that carry the
# process's own name; the timed window opens one warm-up after they start.
until [ "$(grep -lx "$comm" "/proc/$pid/task/"*/comm 2>/dev/null | wc -l)" -ge 2 ]; do
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/out" >&2; exit 1; }
    sleep 0.05
done
sleep $((warmup + (secs - window) / 2))
snapshot "$tmp/a"
sleep "$window"
snapshot "$tmp/b"
if ! wait "$pid"; then
    cat "$tmp/out" >&2
    echo "the benchmark run failed" >&2
    exit 1
fi

qps=$(awk -v w="$workload" '$1 == w && $2 == "qps" { print $3 }' "$tmp/out")
mean=$(awk -v w="$workload" '$1 == w && $2 == "mean_ms" { print $3 }' "$tmp/out")
echo "$workload: qps $qps, mean_ms $mean; ${window} s window, $(awk -v q="$qps" -v w="$window" 'BEGIN { printf "%.0f", q * w }') queries"
awk -v comm="$comm" -v queries="$(awk -v q="$qps" -v w="$window" 'BEGIN { print q * w }')" '
    function role(name) {
        if (name == "gd-coordinator") return "coordinator"
        if (name ~ /^gd-worker-/) return "worker-" substr(name, 11)
        if (name == comm) return "clients+main"
        if (name == "gd-service") return "service"
        if (name ~ /^gd-(egress|ingress|tcp)/) return "network"
        return "other"
    }
    NR == FNR { cpu[$1] = $3; vol[$1] = $4; inv[$1] = $5; next }
    ($1 in cpu) {
        r = role($2)
        n[r]++
        dc[r] += $3 - cpu[$1]; dv[r] += $4 - vol[$1]; di[r] += $5 - inv[$1]
    }
    END {
        k = 0
        for (r in n) {
            for (i = k++; i > 0 && roles[i - 1] > r; i--) roles[i] = roles[i - 1]
            roles[i] = r
        }
        printf "%-14s %7s %13s %13s %15s\n", "role", "threads", "cpu_us/query", "vol_cs/query", "invol_cs/query"
        for (i = 0; i < k; i++) {
            r = roles[i]
            printf "%-14s %7d %13.2f %13.3f %15.3f\n", r, n[r], dc[r] / 1000 / queries, dv[r] / queries, di[r] / queries
            tc += dc[r]
        }
        printf "%-14s %7s %13.2f\n", "total", "", tc / 1000 / queries
    }' "$tmp/a" "$tmp/b"
