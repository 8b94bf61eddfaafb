#!/usr/bin/env python3
"""Running Slider on the simulated cluster, through machine crashes.

Demonstrates the §6 architecture end to end: a 24-machine cluster with a
few stragglers, the hybrid memoization-aware scheduler, the HDFS-like
block store feeding Map locality, and the fault-tolerant memoization layer
— a machine crashes before every other incremental run, and the analysis
keeps producing exact results while the shim I/O layer quietly falls back
to persistent replicas.

Run:  python examples/fault_tolerant_cluster.py
"""

from repro import MapReduceJob, Slider, SliderConfig, SumCombiner, WindowMode
from repro.cluster.machine import Cluster, ClusterConfig
from repro.cluster.scheduler import HybridScheduler
from repro.datagen.text import TextCorpusGenerator
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import make_splits


def main() -> None:
    cluster = Cluster(ClusterConfig(num_machines=24, slots_per_machine=2))
    stragglers = [m.machine_id for m in cluster.machines if m.straggle < 1.0]
    print(f"cluster: {len(cluster)} machines, stragglers: {stragglers}")

    job = MapReduceJob(
        name="wordcount",
        map_fn=lambda line: [(word, 1) for word in line.split()],
        combiner=SumCombiner(),
        num_reducers=4,
    )
    # The randomized tree memoizes its groups content-addressed through the
    # distributed cache, so crashed machines' state is visibly re-served
    # from replicas (the folding tree keeps its node cache process-local).
    slider = Slider(
        job,
        WindowMode.VARIABLE,
        config=SliderConfig(mode=WindowMode.VARIABLE, tree="randomized"),
        cluster=cluster,
        scheduler=HybridScheduler(),
    )
    # The machine that crashes before each run; it rejoins before the next.
    crashes = {1: 3, 3: 11}

    generator = TextCorpusGenerator(seed=12, vocabulary_size=1500)
    splits = make_splits(generator.lines(1300), split_size=10)

    window = splits[:120]
    slider.initial_run(window)
    print(f"initial window: {len(window)} splits, "
          f"{slider.blocks.total_blocks()} blocks stored\n")

    offset = 120
    print("run  crashed  time    memo fallback reads   outputs exact?")
    downed = None
    for run_index in range(5):
        if downed is not None:
            cluster.revive(downed)
        downed = crashes.get(run_index)
        if downed is not None:
            cluster.kill(downed)
            slider.on_machine_failure(downed)
        added = splits[offset : offset + 4]
        offset += 4
        window = window[4:] + list(added)
        result = slider.advance(added, removed=4)

        expected = BatchRuntime(job).run(window).outputs
        exact = result.outputs == expected
        fallbacks = slider.cache.stats.fallback_reads
        crashed = f"m{downed}" if downed is not None else "-"
        print(f"{run_index + 1:>3}  {crashed:>7}  {result.report.time:6.1f}  "
              f"{fallbacks:>19}   {exact}")
        assert exact

    print("\nall runs exact despite crashes; lost in-memory state was served "
          "from persistent replicas.")


if __name__ == "__main__":
    main()
