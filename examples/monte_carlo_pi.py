#!/usr/bin/env python3
"""Monte-Carlo pi on the paper's generic application framework (Section III).

A web role splits the sampling into independent tasks and posts them on a
task-assignment queue; worker roles pull tasks, sample, and report partial
counts through a results queue; a termination-indicator queue drives the
progress display.  Mid-run we crash a worker to demonstrate the queue's
built-in fault tolerance: its task reappears and another instance finishes
it.

    python examples/monte_carlo_pi.py [workers] [tasks]
"""

import json
import sys

import numpy as np

from repro.compute import Fabric
from repro.framework import TaskPoolApp, TaskPoolConfig
from repro.sim import SimStorageAccount
from repro.simkit import Environment

SAMPLES_PER_TASK = 200_000


def pi_handler(ctx, payload):
    """Worker-side task: sample points, count hits inside the unit circle."""
    task = json.loads(payload.decode())
    rng = np.random.default_rng(task["task_id"])
    xy = rng.random((task["samples"], 2))
    hits = int(np.count_nonzero((xy ** 2).sum(axis=1) <= 1.0))
    # Simulated compute time: sampling is cheap but not free.
    yield ctx.sleep(0.002 * task["samples"] / 1000)
    return json.dumps({"task_id": task["task_id"], "hits": hits,
                       "samples": task["samples"]}).encode()


def main():
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    n_tasks = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    env = Environment()
    account = SimStorageAccount(env, seed=42)
    fabric = Fabric(env, account)

    tasks = [json.dumps({"task_id": i, "samples": SAMPLES_PER_TASK}).encode()
             for i in range(n_tasks)]
    app = TaskPoolApp(
        TaskPoolConfig(name="pi", task_queues=2, visibility_timeout=30.0),
        pi_handler)

    fabric.deploy(app.web_role_body(tasks, poll_interval=0.5),
                  instances=1, name="web")
    worker_dep = fabric.deploy(app.worker_role_body(), instances=workers,
                               name="workers")
    fabric.start_all()

    # Chaos: recycle one worker mid-run (the fabric does this in real life).
    def chaos(env):
        yield env.timeout(1.0)
        print(f"[t={env.now:6.2f}s] fabric recycles worker #0 mid-task")
        worker_dep.fail_instance(0, cause="role recycled")

    env.process(chaos(env))
    env.run()

    total_hits = total_samples = 0
    for result in app.results:
        r = json.loads(result.payload.decode())
        total_hits += r["hits"]
        total_samples += r["samples"]
    pi = 4.0 * total_hits / total_samples

    print(f"workers           : {workers} (1 crashed and was not restarted)")
    print(f"tasks             : {n_tasks} submitted, "
          f"{len(app.results)} results collected")
    print(f"samples           : {total_samples:,}")
    print(f"pi estimate       : {pi:.6f}  (error {abs(pi - np.pi):.2e})")
    print(f"simulated runtime : {env.now:.1f}s")
    per_worker = [p for p in worker_dep.results() if p is not None]
    print(f"tasks per worker  : {per_worker}")
    assert len(app.results) >= n_tasks  # fault tolerance held


if __name__ == "__main__":
    main()
