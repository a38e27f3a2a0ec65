#!/usr/bin/env bash
# Local CI: builds the Release and sanitizer configurations and runs the
# full test suite under each.
#
#   tools/ci.sh            # release + asan + ubsan + tsan
#   tools/ci.sh release    # just one configuration
#
# Build trees live under build-ci/<config> so they never collide with the
# default ./build developer tree.

set -euo pipefail
cd "$(dirname "$0")/.."

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  configs=(release asan ubsan tsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)

for config in "${configs[@]}"; do
  case "$config" in
    release) cmake_args=(-DCMAKE_BUILD_TYPE=Release -DFRAGVISOR_SANITIZE=) ;;
    asan)    cmake_args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DFRAGVISOR_SANITIZE=address) ;;
    ubsan)   cmake_args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DFRAGVISOR_SANITIZE=undefined) ;;
    tsan)    cmake_args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DFRAGVISOR_SANITIZE=thread) ;;
    *) echo "unknown config '$config' (release|asan|ubsan|tsan)" >&2; exit 2 ;;
  esac
  # CI builds are warning-clean by construction.
  cmake_args+=(-DFRAGVISOR_WERROR=ON)

  build_dir="build-ci/$config"
  echo "=== [$config] configure ==="
  cmake -B "$build_dir" -S . "${cmake_args[@]}" >/dev/null
  echo "=== [$config] build ==="
  cmake --build "$build_dir" -j "$jobs" >/dev/null
  if [ "$config" = "tsan" ]; then
    # ThreadSanitizer leg: every tier-1 test, so a new suite that starts
    # worker threads is covered without being named here.
    echo "=== [$config] ctest (tier1) ==="
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -L tier1
    continue
  fi

  echo "=== [$config] ctest (tier1) ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -L tier1

  if [ "$config" = "release" ] || [ "$config" = "asan" ]; then
    # Versioned scenario suite (DESIGN.md §10): every pinned configuration
    # must reproduce its expected-output hash. On mismatch the runner prints
    # the full canonical report; archive it for the postmortem.
    artifacts="build-ci/artifacts"
    mkdir -p "$artifacts"
    echo "=== [$config] scenario suite ==="
    if ! "$build_dir/tools/scenario_runner" scenarios/*.json \
        | tee "$artifacts/scenarios_$config.txt"; then
      echo "scenario suite failed; report at $artifacts/scenarios_$config.txt" >&2
      exit 1
    fi

    # Paper-figure pins: every fig* binary and m1 must print its pinned
    # stdout (SHA-256) with default arguments; a mismatch prints the output.
    echo "=== [$config] ctest (figure pins) ==="
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -L figure

    # Whole-sim snapshot + fabric record/replay through separate processes:
    # run A records a capture and saves a snapshot at epoch 1; run B resumes
    # from the snapshot and must produce a byte-identical canonical report;
    # `fvsim replay` re-runs the recorded configuration and must commit the
    # exact same delivery stream. The fractional-millisecond crash crosses
    # the process boundary through the capture header and the snapshot's
    # config fingerprint. Diverging captures stay in the artifacts directory
    # for offline diffing.
    echo "=== [$config] fvsim snapshot + capture/replay round trip ==="
    snap_flags=(storm --nodes 12 --streams 3 --accesses 80 --epochs 3
                --threads 2 --fault-drop 0.02 --fault-delay-us 2 --fault-crash 5@0.25)
    "$build_dir/tools/fvsim" "${snap_flags[@]}" \
        --capture "$artifacts/ci_storm_$config.fvcap" \
        --snapshot-save "$artifacts/ci_storm_$config.fvsnap" --snapshot-epoch 1 \
        --report "$artifacts/ci_storm_full_$config.txt" >/dev/null
    "$build_dir/tools/fvsim" "${snap_flags[@]}" \
        --snapshot-load "$artifacts/ci_storm_$config.fvsnap" \
        --report "$artifacts/ci_storm_resumed_$config.txt" >/dev/null
    diff "$artifacts/ci_storm_full_$config.txt" \
         "$artifacts/ci_storm_resumed_$config.txt"
    echo "fresh-process snapshot resume is byte-identical"
    if ! "$build_dir/tools/fvsim" replay \
        --capture "$artifacts/ci_storm_$config.fvcap"; then
      echo "replay diverged; capture kept at $artifacts/ci_storm_$config.fvcap" >&2
      exit 1
    fi
    # The same fresh-process resume for a faulted marketplace, saved after
    # its first wave.
    echo "=== [$config] fvsim cluster snapshot round trip ==="
    cluster_flags=(cluster --nodes 16 --vms 40 --trace flash --epochs 2 --threads 2
                   --fault-drop 0.02 --fault-crash 3@5)
    "$build_dir/tools/fvsim" "${cluster_flags[@]}" \
        --snapshot-save "$artifacts/ci_cluster_$config.fvsnap" --snapshot-epoch 1 \
        --report "$artifacts/ci_cluster_full_$config.txt" >/dev/null
    "$build_dir/tools/fvsim" "${cluster_flags[@]}" \
        --snapshot-load "$artifacts/ci_cluster_$config.fvsnap" \
        --report "$artifacts/ci_cluster_resumed_$config.txt" >/dev/null
    diff "$artifacts/ci_cluster_full_$config.txt" \
         "$artifacts/ci_cluster_resumed_$config.txt"
    echo "fresh-process marketplace resume is byte-identical"
  fi

  if [ "$config" = "asan" ] || [ "$config" = "ubsan" ]; then
    # Randomized fault-injection suites get extra mileage under the
    # sanitizers: three distinct seeds per configuration. Every seed run
    # includes the partial-recovery sweep (PartialRecoveryTest relocates the
    # crash times and kills each lender node in turn, comparing the surgical
    # path against the full restore).
    for seed in 1 2 3; do
      echo "=== [$config] ctest (tier2, FV_FAULT_SEED=$seed) ==="
      FV_FAULT_SEED=$seed ctest --test-dir "$build_dir" --output-on-failure \
        -j "$jobs" -L tier2
    done
  else
    echo "=== [$config] ctest (tier2) ==="
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -L tier2
    # The partial-recovery sweep is cheap enough to seed-sweep in release too.
    for seed in 1 2 3; do
      echo "=== [$config] partial-recovery sweep (FV_FAULT_SEED=$seed) ==="
      FV_FAULT_SEED=$seed ctest --test-dir "$build_dir" --output-on-failure \
        -j "$jobs" -L tier2 -R PartialRecovery
    done
    # Cluster chaos campaign sweep (DESIGN.md §12): each seed block derives
    # fresh crash/partition/jitter schedules, checks the cluster invariants,
    # and byte-compares every run across worker counts.
    for seed in 1 7 1234; do
      echo "=== [$config] cluster chaos sweep (FV_FAULT_SEED=$seed) ==="
      FV_FAULT_SEED=$seed ctest --test-dir "$build_dir" --output-on-failure \
        -j "$jobs" -L tier2 -R ClusterChaosSweep
    done

    # Perf trajectory + fast-path gates, release only. Both benches write
    # BENCH_*.json artifacts into build-ci/artifacts/; ablation_dsm_fastpath
    # exits non-zero (failing CI here) when any swept configuration violates
    # the coherence invariants or changes workload results, and
    # micro_core_hotpath when the 64-node storm's report differs across its
    # parallel worker counts (1, 2, 3, 4 and 8).
    artifacts="build-ci/artifacts"
    mkdir -p "$artifacts"
    echo "=== [$config] bench: micro_core_hotpath (parallel sweep gate) ==="
    "$build_dir/bench/micro_core_hotpath" --events 200000 --accesses 200000 \
      --storm-accesses 51200 \
      --out "$artifacts/BENCH_core_hotpath.json" \
      --parallel-out "$artifacts/BENCH_parallel_core.json"
    echo "=== [$config] bench: ablation_dsm_fastpath (invariant gate) ==="
    "$build_dir/bench/ablation_dsm_fastpath" --quick \
      --out "$artifacts/BENCH_dsm_fastpath.json"
    # The marketplace ablation doubles as a determinism gate: it fails when
    # the cluster report differs across worker counts.
    echo "=== [$config] bench: cluster_marketplace (fragbff vs harvest) ==="
    "$build_dir/bench/cluster_marketplace" --quick \
      --out "$artifacts/BENCH_cluster_marketplace.json"
    # The chaos bench gates on both the cluster invariants and campaign
    # reproducibility (it exits non-zero on any violation).
    echo "=== [$config] bench: cluster_chaos (fault-tolerance campaign) ==="
    "$build_dir/bench/cluster_chaos" --quick \
      --out "$artifacts/BENCH_cluster_chaos.json"
    # Transport fast-path sensitivity study: RDMA-read and compression must
    # keep workload results byte-identical while improving latency/bytes, and
    # the fat-tree oversubscription sweep must stay monotone (non-zero exit
    # on any violated gate).
    echo "=== [$config] bench: fabric_transport (RDMA/compression/fat-tree) ==="
    "$build_dir/bench/fabric_transport" --quick \
      --out "$artifacts/BENCH_fabric_transport.json"
    # The benchmark's own tests: BENCHMARK.json shape, metric names and units,
    # each workload's correctness gate, and held-out-seed shape. run.py builds
    # fvbench in Release under $CARGO_TARGET_DIR/perfbench.
    echo "=== [$config] perfbench self-tests ==="
    CARGO_TARGET_DIR=build-ci python3 perfbench/test_bench.py
    # The simulated outputs of every workload must equal perfbench/pins.json
    # on seeds 1 and 7: a change that only speeds the simulator up must not
    # move them. run.py reports a drift but still exits 0, so read its
    # verdicts: all three must say match.
    for seed in 1 7; do
      echo "=== [$config] perfbench outputs vs pins (seed $seed) ==="
      pin_log="$artifacts/perfbench_pins_seed$seed.txt"
      CARGO_TARGET_DIR=build-ci python3 perfbench/run.py --workload all --seed "$seed" \
        --seconds 0 --min-reps 1 | tee "$pin_log"
      if grep -E "sim outputs vs pins.json: (changed|unpinned)" "$pin_log" >/dev/null ||
          [ "$(grep -c "sim outputs vs pins.json: match" "$pin_log")" -ne 3 ]; then
        echo "perfbench outputs differ from perfbench/pins.json (seed $seed); see $pin_log" >&2
        exit 1
      fi
    done

    # Run-to-run determinism of the fast paths at the fvsim level: two
    # identical runs with every --dsm-* flag on must diff clean.
    echo "=== [$config] fvsim fast-path determinism ==="
    fvsim_flags=(npb --bench CG --vcpus 4 --dsm-prefetch 2 --dsm-hints
                 --dsm-replicate --dsm-adaptive)
    "$build_dir/tools/fvsim" "${fvsim_flags[@]}" > "$artifacts/fvsim_dsm_run1.txt"
    "$build_dir/tools/fvsim" "${fvsim_flags[@]}" > "$artifacts/fvsim_dsm_run2.txt"
    diff "$artifacts/fvsim_dsm_run1.txt" "$artifacts/fvsim_dsm_run2.txt"
    echo "fast-path runs are deterministic"

    # Parallel-core determinism at the fvsim level: the storm's canonical
    # report must be byte-identical across worker counts (incl. with faults).
    echo "=== [$config] fvsim parallel-core determinism ==="
    storm_flags=(storm --nodes 32 --streams 3 --accesses 80
                 --fault-drop 0.03 --fault-dup 0.02 --fault-delay-us 3)
    "$build_dir/tools/fvsim" "${storm_flags[@]}" --threads 1 \
      --report "$artifacts/fvsim_storm_t1.txt" >/dev/null
    "$build_dir/tools/fvsim" "${storm_flags[@]}" --threads 4 \
      --report "$artifacts/fvsim_storm_t4.txt" >/dev/null
    diff "$artifacts/fvsim_storm_t1.txt" "$artifacts/fvsim_storm_t4.txt"
    echo "parallel-core runs are deterministic across worker counts"
  fi
done

echo "ci: all configurations passed (${configs[*]})"
