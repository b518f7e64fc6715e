"""One repetition in a fresh interpreter: `python3 child.py JOB.json`.

The parent stamps `spawned` (time.monotonic, which is system-wide on
Linux) just before starting this process; set-up ends right before the
first call into `taufact.cli.main`, after `import taufact` and reading the
generated inputs.  Modes:

  probe   set up, then exit (extra set-up samples, and the warm-up that
          leaves compiled bytecode behind)
  verify  one `taufact verify` call
  stream  every request of the list, one after another, each through
          `cli.main` in this one process

The result goes to the job's `result` file as JSON.
"""

import sys
import time


def main(job_path):
    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource

    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import taufact  # noqa: F401
    from taufact import cli

    with open(job["inputs"]) as fh:
        inputs = json.load(fh)
    set_up = time.monotonic()
    result = {"setup_s": set_up - job["spawned"]}
    if job["mode"] == "probe":
        return result
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def peak_rss_mb():
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, workers) / 1024.0

    if job["mode"] == "verify":
        argv = ["verify", "--corpus", job["inputs"], "--jobs", str(job["jobs"]), "--out", job["report"]]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        result.update(exit_code=code, wall_s=wall, latencies_s=[wall], peak_rss_mb=peak_rss_mb())
    else:
        import gate

        digest = hashlib.sha256()
        latencies, failures = [], []
        wall = 0.0
        for i, argv in enumerate(inputs["requests"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(argv)
                took = time.perf_counter() - start
            wall += took
            latencies.append(took)
            text = out.getvalue()
            digest.update(f"{code}\n{text}\n".encode())
            problem = gate.check_response(argv, code, text)
            if problem:
                failures.append([i, problem])
        result.update(
            wall_s=wall,
            latencies_s=latencies,
            peak_rss_mb=peak_rss_mb(),
            digest=digest.hexdigest(),
            failures=failures,
        )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(job["trace_out"])
    return result


if __name__ == "__main__":
    job_path = sys.argv[1]
    result = main(job_path)
    import json

    with open(job_path[: -len(".json")] + ".result.json", "w") as fh:
        json.dump(result, fh)
