#!/usr/bin/env bash
# Chaos matrix: run the deterministic fault-injection suite across its fixed
# seed x workload grid, then a batch of fresh randomized seeds to probe
# schedules nobody hand-picked. Every randomized run prints its seed on
# failure, so any break replays exactly with
#
#   HARMONY_CHAOS_SEED=<seed> ctest --test-dir <build> -R RandomizedSeed
#
# Usage:
#   chaos_matrix.sh [build-dir] [randomized-rounds] [threads]
#
# Defaults: build-dir=build, randomized-rounds=5, threads=4. The matrix
# fan-out runs ThreadPool::Run on a local pool of `threads` workers (exported
# as HARMONY_CHAOS_THREADS); results are bit-identical at any worker count, and
# the suite itself asserts parallel-vs-serial parity, so the thread knob only
# trades wall time. Registered in CI as the chaos job; also runnable by hand
# after any runtime/fault change.
set -euo pipefail

BUILD_DIR=${1:-build}
ROUNDS=${2:-5}
THREADS=${3:-4}
export HARMONY_CHAOS_THREADS="$THREADS"

[ -d "$BUILD_DIR" ] || { echo "FAIL: build dir '$BUILD_DIR' not found"; exit 1; }

echo "=== fixed-seed chaos matrix (ctest -L chaos, $THREADS workers) ==="
# Covers: per-fault-kind parity, the seed x {BERT96, GPT2} survivable matrix,
# bit-identical same-seed replay, unsurvivable-fault Status wording, watchdog
# stuck-diagnostics + cancel escalation, and the inert-plan bit-identity.
ctest --test-dir "$BUILD_DIR" -L chaos --output-on-failure

echo
echo "=== replan matrix (ctest -L replan) ==="
# The degradation-aware loop: {BERT96, GPT2} x {persistent link failure,
# permanent memory shrink} plus the health monitor's hysteresis/synthesis
# units and the bit-identity invariants (plan == Algorithm 1 on the degraded
# descriptor; post-switchover accounting == a fresh run on it; replan off ==
# the plain loop). Fully deterministic — persistent faults draw no RNG — so
# no randomized rounds are needed here. ASan/TSan trees register
# adapt_test_{asan,tsan} under the same label.
ctest --test-dir "$BUILD_DIR" -L replan --output-on-failure

echo
echo "=== randomized seeds ($ROUNDS rounds) ==="
FAILED=0
for round in $(seq "$ROUNDS"); do
  # Draw the seed here (not in the test) so a failing round's replay recipe
  # is visible in this log even if the test binary dies before printing it.
  SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  echo "--- round $round: HARMONY_CHAOS_SEED=$SEED"
  if ! HARMONY_CHAOS_SEED="$SEED" ctest --test-dir "$BUILD_DIR" \
        -R "ChaosMatrix.RandomizedSeedHoldsTheInvariant" --output-on-failure; then
    echo "FAIL: randomized chaos round $round broke the invariant"
    echo "      replay with: HARMONY_CHAOS_SEED=$SEED ctest --test-dir $BUILD_DIR -R RandomizedSeed"
    FAILED=1
  fi
done

[ "$FAILED" -eq 0 ] || exit 1
echo
echo "PASS: chaos matrix (fixed seeds + $ROUNDS randomized rounds)"
