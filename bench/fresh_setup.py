"""Set-up of one workload: import guardsim, generate the workload, parse it.

    python3 bench/fresh_setup.py market 1 tokens=4000 rounds=1000 users=50

`setup` builds a workload's inputs; ``run.py`` calls it in-process before its
rounds. Run as a script from the root of a checkout, the file sets up once in a
fresh interpreter and prints two numbers: the CPU nanoseconds the process has
used since it started, and the number of parsed steps (for ``fuzz``, the
fuzzer's ops per sequence). ``run.py`` times ``setup_s`` this way, so that
interpreter start-up and every import guardsim needs are part of it. The
script imports only ``sys`` and ``time`` before it starts setting up.
"""

import sys
import time


def setup(kind: str, seed: int, size: dict) -> dict:
    """Import guardsim and build ``kind``'s inputs: the generated workload and
    its parsed scenario, or for ``fuzz`` the `Fuzzer`."""
    import guardsim  # noqa: F401
    from guardsim import fuzz, runner, scenario

    inputs = {"fuzz_mod": fuzz, "runner": runner}
    if kind == "fuzz":
        inputs["fuzzer"] = fuzz.Fuzzer(seed)
    else:
        from workload import generate

        workload = generate(kind, seed, size["tokens"], size["rounds"], size["users"])
        inputs["workload"] = workload
        inputs["scenario"] = scenario.parse_scenario(workload.text)
    return inputs


def main(argv: list[str]) -> int:
    kind, seed, *pairs = argv
    size = {key: int(value) for key, value in (pair.split("=", 1) for pair in pairs)}
    sys.path.insert(0, "src")
    inputs = setup(kind, int(seed), size)
    cpu_ns = time.process_time_ns()
    made = inputs["fuzzer"].ops_per_run if kind == "fuzz" else len(inputs["scenario"].steps)
    print(cpu_ns, made)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
