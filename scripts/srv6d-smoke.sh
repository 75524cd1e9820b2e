#!/usr/bin/env bash
# End-to-end smoke test of the srv6d binary on loopback: start the daemon
# with a tiny config and a stats socket, scrape metrics, apply a live
# config reload, then drain it and check the clean exit. Drives the same
# control paths as SIGHUP/SIGTERM but through `srv6d ctl`, so it works
# in environments where the test runner can't signal (and exercises the
# stats socket on the way).
#
# Usage:
#   scripts/srv6d-smoke.sh
#
# Environment:
#   SRV6D  path to a prebuilt srv6d binary (default: builds --release)
set -euo pipefail

cd "$(dirname "$0")/.."

if [ -z "${SRV6D:-}" ]; then
    cargo build --release -p srv6d --bin srv6d
    SRV6D=target/release/srv6d
fi

work="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

cfg="$work/srv6d.conf"
sock="$work/stats.sock"
log="$work/srv6d.log"

cat >"$cfg" <<CONF
[daemon]
workers = 1
batch-size = 32
queue-depth = 1024
rx-burst = 64
pin = compact

[tenant edge]
local = fc00::1
listen = [::1]:48800
peer = 1 [::1]:48900
vrf = customers
weight = 4
quota = 50%
budget = 500000
route = ::/0 dev 1
route = @customers 2001:db8::/32 dev 1
sid = fc00::1:0:e end
sid = fc00::1:0:d6 end.dt6 customers
CONF

# --- validate-only path -----------------------------------------------
check_out="$("$SRV6D" check --config "$cfg")"
printf '%s\n' "$check_out" | grep -q '^ok: 1 tenants' || {
    echo "srv6d check rejected a valid config" >&2
    exit 1
}
printf '%s\n' "$check_out" | grep -qx 'io-backend: mmsg' || {
    echo "srv6d check did not report the io-backend:" >&2
    printf '%s\n' "$check_out" >&2
    exit 1
}
printf '%s\n' "$check_out" | grep -q '^pinning: compact' || {
    echo "srv6d check did not report the pinning plan:" >&2
    printf '%s\n' "$check_out" >&2
    exit 1
}

# --- start, wait for the stats socket to answer -----------------------
"$SRV6D" --config "$cfg" --stats "$sock" >"$log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 100); do
    if "$SRV6D" ctl "$sock" ping 2>/dev/null | grep -q '^ok'; then
        break
    fi
    kill -0 "$daemon_pid" 2>/dev/null || {
        echo "srv6d exited during startup:" >&2
        cat "$log" >&2
        exit 1
    }
    sleep 0.1
done
"$SRV6D" ctl "$sock" ping | grep -q '^ok' || {
    echo "stats socket never came up" >&2
    cat "$log" >&2
    exit 1
}

# --- scrape metrics ---------------------------------------------------
metrics="$("$SRV6D" ctl "$sock" metrics)"
printf '%s\n' "$metrics" | grep -q 'srv6d_tenant_active{tenant="edge",slot="0"} 1' || {
    echo "metrics missing the active tenant row:" >&2
    printf '%s\n' "$metrics" >&2
    exit 1
}
printf '%s\n' "$metrics" | grep -q 'srv6d_enqueued_total{tenant="edge",slot="0",shard="0"} 0' || {
    echo "metrics missing the per-shard counter rows" >&2
    exit 1
}
printf '%s\n' "$metrics" | grep -q 'srv6d_rejected_over_budget_total{tenant="edge",slot="0",shard="0"} 0' || {
    echo "metrics missing the QoS over-budget counter rows" >&2
    exit 1
}
printf '%s\n' "$metrics" | grep -q 'srv6d_cost_budget{tenant="edge",slot="0"} 500000' || {
    echo "metrics missing the configured cost-budget gauge (tenant has a budget)" >&2
    exit 1
}

# --- shard pinning ----------------------------------------------------
# `pin = compact` pins shard 0 to the first allowed core; the gauge is
# -1 only when pinning failed. Pinning is a placement hint, so on a
# single-core host (where the scheduler has no choice anyway) this is a
# logged skip rather than a failure.
if [ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]; then
    printf '%s\n' "$metrics" | grep -q 'srv6d_shard_pinned_core{shard="0"} [0-9]' || {
        echo "shard 0 not pinned despite pin = compact on a multi-core host:" >&2
        printf '%s\n' "$metrics" | grep 'srv6d_shard_' >&2
        exit 1
    }
else
    printf '%s\n' "$metrics" | grep -q 'srv6d_shard_pinned_core{shard="0"}' || {
        echo "metrics missing the shard placement gauges" >&2
        exit 1
    }
    echo "srv6d smoke: 1-core host, pinning gauge present but value not asserted"
fi

# --- live reload: add a route, keep the tenant ------------------------
cat >>"$cfg" <<'CONF'
route = 2001:db8:b::/48 dev 1
CONF
"$SRV6D" ctl "$sock" reload | grep -q '^ok' || {
    echo "reload command rejected" >&2
    exit 1
}
for _ in $(seq 1 100); do
    grep -q 'reload:' "$log" && break
    sleep 0.1
done
grep -q 'reload:' "$log" || {
    echo "daemon never logged the reload report:" >&2
    cat "$log" >&2
    exit 1
}
grep 'reload:' "$log" | grep -q '1 route-patched' || {
    echo "reload report did not classify the change as a route diff:" >&2
    grep 'reload:' "$log" >&2
    exit 1
}

# --- live reload: weight-only change takes the QoS fast path ----------
# A pure QoS retune (weight 4 → 8) must be applied in place — "retuned",
# not a slot rebuild and not a route patch.
sed -i 's/^weight = 4$/weight = 8/' "$cfg"
"$SRV6D" ctl "$sock" reload | grep -q '^ok' || {
    echo "second reload command rejected" >&2
    exit 1
}
for _ in $(seq 1 100); do
    [ "$(grep -c 'reload:' "$log")" -ge 2 ] && break
    sleep 0.1
done
retune="$(grep 'reload:' "$log" | tail -n 1)"
printf '%s\n' "$retune" | grep -q '1 retuned' || {
    echo "weight-only reload was not classified as a QoS retune:" >&2
    printf '%s\n' "$retune" >&2
    exit 1
}
printf '%s\n' "$retune" | grep -q '0 rebuilt' && printf '%s\n' "$retune" | grep -q '0 route-patched' || {
    echo "weight-only reload fell off the fast path:" >&2
    printf '%s\n' "$retune" >&2
    exit 1
}

# --- graceful drain and clean exit ------------------------------------
"$SRV6D" ctl "$sock" drain | grep -q '^ok' || {
    echo "drain command rejected" >&2
    exit 1
}
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
    echo "daemon did not exit after drain:" >&2
    cat "$log" >&2
    exit 1
fi
wait "$daemon_pid"
daemon_pid=""

grep -q 'srv6d: drained' "$log" || {
    echo "daemon exited without the drain report:" >&2
    cat "$log" >&2
    exit 1
}
grep -q 'tenant edge (active)' "$log" || {
    echo "final counters missing the tenant row:" >&2
    cat "$log" >&2
    exit 1
}
[ ! -e "$sock" ] || {
    echo "stats socket left behind after drain" >&2
    exit 1
}

echo "srv6d smoke: start, metrics scrape, live reload (routes + QoS retune), drain — all ok"
