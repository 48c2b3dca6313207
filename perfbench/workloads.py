"""The benchmark's workloads: the epvf command lists each one runs.

Every command is an `epvf` invocation at default flags; only the target,
its scale, the run count and the campaign seed vary. A workload is a cycle
of commands that the closed-loop client repeats; the benchmark seed picks
the cycle order and which campaign seeds from a fixed pool each cycle uses,
so every command any seed can produce has a stored reference digest
(refs.json, written by `run.py --write-refs`).
"""

import random

APPS = ["lulesh", "particlefilter", "srad", "nw", "hotspot", "lavaMD", "bfs", "lud",
        "pathfinder", "mm", "kmeans"]

# Stands for the path of the .ir target (the printed mm IR, written into each
# run's work directory) in command strings and refs.json keys.
IR_PLACEHOLDER = "{mm.ir}"

# Campaign seeds the inject commands draw from; each cycle takes
# SEEDS_PER_CYCLE consecutive pool entries, so a run covers the whole pool
# several times and no one seed's outcomes set its figures.
INJECT_SEEDS = [11, 23, 37, 41, 53, 67, 79, 97]
SEEDS_PER_CYCLE = 4


def inject_seeds(first):
    """SEEDS_PER_CYCLE consecutive pool seeds from pool index `first` on."""
    return [INJECT_SEEDS[(first + k) % len(INJECT_SEEDS)] for k in range(SEEDS_PER_CYCLE)]

# serve-warm: seeds whose campaigns the daemon has already run (primed during
# set-up), and the fresh (app, seed) pairs a run walks through without reuse.
REPEAT_SEEDS = [501, 502, 503, 504, 505, 506, 507, 508]
REPEAT_APPS = ["lulesh", "mm", "particlefilter", "bfs", "pathfinder", "lud"]
FRESH_APPS = ["lulesh", "bfs", "pathfinder", "lud"]
FRESH_POOL = 256
FRESH_BASE_SEED = 1000

# Commands whose stdout is a committed golden (tests/golden/), keyed without
# the --no-cache the CLI form carries (a daemon request has no cache flag).
# They run in every cycle of the workload that lists them, whatever the seed.
ANCHORS = {
    "analyze mm --scale 0": "analyze_mm.txt",
    "inject mm --scale 0 --runs 40 --seed 7": "inject_mm.txt",
    "inject lulesh --scale 0 --runs 60 --seed 7 --scenario memory": "inject_lulesh_memory.txt",
}


def anchor_golden(command):
    """The golden file name when `command` is an anchor, else None."""
    return ANCHORS.get(command.replace(" --no-cache", ""))


WORKLOADS = {
    "analyze-cold": "cold `epvf analyze` processes over every app, three long traces and an "
                    ".ir file: the analysis pipeline alone, no injection, cache or daemon",
    "inject-register": "default register campaigns (jitter 2, auto checkpoints) as cold "
                       "processes: untraced interpreter speed, runs restart from instruction 0",
    "inject-memory": "default memory-scenario campaigns (jitter 0, auto checkpoints): "
                     "snapshot restore and suffix replay dominate",
    "serve-warm": "one `epvf serve` daemon: resident analyzes, cached inject repeats and "
                  "fresh-seed injects over a new connection per request",
}


def analyze_cycle():
    """Every app twice at scale 1, so the median falls among these short,
    closely spaced analyzes rather than in the gap between two of them;
    the three scale-4 traces set the 90th percentile."""
    cycle = ["analyze " + app for app in APPS] * 2
    cycle += ["analyze %s --scale 4" % app for app in ("mm", "hotspot", "nw")]
    cycle.append("analyze " + IR_PLACEHOLDER)
    cycle.append("analyze mm --scale 0 --no-cache")
    return cycle


# The inject workloads repeat short campaigns (a few hundred runs, or a capped
# stratified budget) with several seeds per cycle and run one long-trace
# campaign per cycle, so a run holds over 100 requests and its percentiles
# rest on many samples rather than on a few long commands. The long-trace
# campaigns take `long_seed`, which steps through the pool one entry per
# cycle: their times set the 90th percentile, and a seed's outcomes move
# them by up to a tenth.

def inject_register_cycle(seeds, long_seed):
    cycle = []
    for seed in seeds:
        s = "--seed %d" % seed
        cycle += ["inject lulesh " + s, "inject bfs " + s, "inject pathfinder " + s,
                  "inject mm --plan stratified --max-runs 400 " + s,
                  "inject lud --plan stratified --max-runs 400 " + s]
    cycle.append("inject hotspot --scale 4 --runs 100 --seed %d" % long_seed)
    cycle.append("inject mm --scale 0 --runs 40 --seed 7 --no-cache")
    return cycle


def inject_memory_cycle(seeds, long_seed):
    cycle = []
    for seed in seeds:
        s = "--seed %d" % seed
        cycle += ["inject lulesh --scenario memory --runs 200 " + s,
                  "inject mm --scenario memory --runs 200 " + s,
                  "inject lulesh --plan stratified --scenario memory --max-runs 200 " + s]
    s = "--seed %d" % long_seed
    cycle += ["inject hotspot --scale 4 --scenario memory --runs 100 " + s,
              "inject particlefilter --scenario memory --runs 200 " + s,
              "inject lulesh --scale 0 --runs 60 --seed 7 --no-cache --scenario memory"]
    return cycle


def serve_anchors():
    return list(ANCHORS)


def serve_repeats(repeat_seed):
    return ["inject %s --seed %d" % (app, repeat_seed) for app in REPEAT_APPS]


def fresh_inject(index):
    app = FRESH_APPS[index % len(FRESH_APPS)]
    return "inject %s --seed %d" % (app, FRESH_BASE_SEED + index)


def serve_cycle_static(repeat_seed):
    """Requests of a serve-warm cycle besides its fresh inject.

    Reads dominate: every app is analyzed twice per cycle, so the median
    falls among the resident analyzes, whose times lie close together,
    rather than on the step up to the injects; and the repeat injects span
    six apps, so the 90th percentile falls among their closely spaced times.
    """
    return (["analyze " + app for app in APPS] * 2 + serve_anchors() +
            serve_repeats(repeat_seed))


class Plan:
    """One run's inputs, derived from the benchmark seed alone."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        # Offset into the seed pools.
        self.base = random.Random("%s/%d" % (workload, seed)).randrange(1 << 16)

    def cycle(self, index):
        """The command list of cycle `index` (set-up passes use -1, -2, ...);
        None when serve-warm has spent its fresh-seed pool."""
        order = random.Random("%s/%d/%d" % (self.workload, self.seed, index))
        if self.workload == "analyze-cold":
            cycle = analyze_cycle()
        elif self.workload == "inject-register":
            cycle = inject_register_cycle(*self.inject_seeds(index))
        elif self.workload == "inject-memory":
            cycle = inject_memory_cycle(*self.inject_seeds(index))
        else:
            fresh = self.fresh(index)
            if fresh is None:
                return None
            cycle = serve_cycle_static(self.repeat_seed()) + [fresh]
        order.shuffle(cycle)
        return cycle

    def inject_seeds(self, index):
        """Cycle `index`'s campaign seeds and long-trace campaign seed."""
        return (inject_seeds(self.base + index * SEEDS_PER_CYCLE),
                INJECT_SEEDS[(self.base + index) % len(INJECT_SEEDS)])

    def repeat_seed(self):
        return REPEAT_SEEDS[self.base % len(REPEAT_SEEDS)]

    def fresh(self, index):
        """serve-warm's fresh inject of cycle `index`; None once the pool is spent."""
        if index >= FRESH_POOL:
            return None
        return fresh_inject((self.base + index) % FRESH_POOL)

    def prime(self):
        """serve-warm set-up: every request a cycle repeats, run once."""
        return serve_cycle_static(self.repeat_seed())

    def traced(self):
        """Plan lines for the traced pass (perfbench_layers).

        Five `spawn` lines come first, timing process start-up while the
        tracing process is still small; then the workload's own commands;
        then probe lines, marked by a leading "probe" word, for the layers
        the workload does not reach, so every per-layer metric is measured
        on every workload.
        """
        s = INJECT_SEEDS[self.base % len(INJECT_SEEDS)]
        small = "--runs 200 --seed %d" % s
        probes = {
            "ir": ["analyze " + IR_PLACEHOLDER],
            "fi.uniform": ["inject lulesh " + small],
            "fi.memory": ["inject lulesh --scenario memory " + small],
            "fi.stratified": ["inject lud --plan stratified --max-runs 200 --seed %d" % s],
            "store": ["store lulesh", "store-campaign lulesh " + small],
            "serve": ["serve analyze lulesh", "serve analyze lulesh"] +
                     ["serve " + serve_repeats(self.repeat_seed())[0]] * 2,
        }
        lines = ["spawn"] * 5
        if self.workload == "serve-warm":
            lines += ["serve " + c for c in self.prime()]
            lines += ["serve " + c for c in self.cycle(0)]
            lines += ["analyze " + app for app in APPS]
            lines += ["store " + app for app in APPS]
            lines += ["store-campaign " + c.split(" ", 1)[1]
                      for c in serve_repeats(self.repeat_seed())]
            lines.append(self.fresh(0))
            on_path = {"serve", "store", "fi.uniform"}
        else:
            lines += self.cycle(0)
            on_path = {"analyze-cold": {"ir"},
                       "inject-register": {"fi.uniform", "fi.stratified"},
                       "inject-memory": {"fi.memory", "fi.stratified"}}[self.workload]
        for group, extra in probes.items():
            if group not in on_path:
                lines += ["probe " + line for line in extra]
        return lines


def all_reference_commands():
    """Every non-anchor command any seed can produce, for refs.json."""
    commands = set(analyze_cycle())
    for first, long_seed in enumerate(INJECT_SEEDS):
        commands.update(inject_register_cycle(inject_seeds(first), long_seed))
        commands.update(inject_memory_cycle(inject_seeds(first), long_seed))
    for seed in REPEAT_SEEDS:
        commands.update(serve_cycle_static(seed))
    commands.update(fresh_inject(i) for i in range(FRESH_POOL))
    commands.update(serve_anchors())
    return sorted(c for c in commands if anchor_golden(c) is None)
