"""The benchmark's own test, run once and untimed:

    python3 e2ebench/run.py --self-test [--seed N]

On inputs generated from the seed it checks that
  1. `run` and `stream` write byte-identical profiles at --threads 1 and
     --threads N;
  2. `run` on a cold kernel cache and on the warm cache it left behind
     writes byte-identical profiles;
  3. `stream`'s final profiles equal `run --lambda <the same lambda>` on
     the same data, bit for bit (the CLI's documented contract);
  4. the output checker counts a corrupted value, a non-finite value, a
     missing profile file, a reported FAILED gene, and a nonzero exit as
     failed operations, and a clean output as none.
Prints one PASS/FAIL line per check; returns 0 when all pass, else 1.
"""

import filecmp
import os
import shutil


def same_files(a, b):
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names)


def corrupt_value(path, replacement=None):
    """Change the first gene's value in data row 100 (phi = 0.5)."""
    with open(path) as f:
        lines = f.read().split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    row = lines[data[101]].split(",")
    row[1] = replacement if replacement is not None else repr(float(row[1]) + 1e-9)
    lines[data[101]] = ",".join(row)
    with open(path, "w") as f:
        f.write("\n".join(lines))


def main(bench, seed):
    outcomes = []

    def check(name, ok, detail=""):
        outcomes.append(ok)
        print("%s  %s%s" % ("PASS" if ok else "FAIL", name,
                            "" if ok or not detail else "\n" + detail))

    def run_into(manifest, dirs, label, threads, extra=()):
        out = os.path.join(dirs.base, label)
        bench.reset_dir(out)
        command = bench.command(manifest, dirs.input_set(0), dirs.cache, threads, out)
        outcome = bench.run_child(command + list(extra),
                                  os.path.join(dirs.logs, label + ".log"))
        check("%s exits 0" % label, outcome.code == 0, outcome.stdout[-1500:])
        return out, outcome

    # run: cold at N threads, warm at N threads, cold at 1 thread.
    dirs = bench.Dirs("selftest_run")
    _, manifest, _ = bench.setup("run_cold", seed, dirs)
    bench.reset_dir(dirs.cache)
    cold_n, cold_outcome = run_into(manifest, dirs, "run_cold_threads_n", bench.THREADS)
    warm_n, _ = run_into(manifest, dirs, "run_warm_threads_n", bench.THREADS)
    bench.reset_dir(dirs.cache)
    cold_1, _ = run_into(manifest, dirs, "run_cold_threads_1", 1)
    check("run: --threads 1 and --threads %d profiles are byte-identical" % bench.THREADS,
          same_files(cold_1, cold_n))
    check("run: cold-cache and warm-cache profiles are byte-identical",
          same_files(cold_n, warm_n))

    # The output checker, fed deliberately broken copies of a good output.
    inputs = dirs.input_set(0)
    reference = {}
    attempted, failed, _ = bench.check_outputs(manifest, inputs, cold_n, 0, cold_outcome.stdout,
                                               reference)
    check("checker: a clean output has no failed operations", attempted > 0 and failed == 0,
          "attempted %d, failed %d" % (attempted, failed))
    first = sorted(bench.output_files(manifest, "").values())[0]
    labels = bench.gene_labels(manifest, inputs)
    cases = [("a changed value fails its gene", lambda p: corrupt_value(p), 0, "", 1),
             ("a non-finite value fails its gene", lambda p: corrupt_value(p, "nan"), 0, "", 1),
             ("a missing profile file fails all its genes", os.remove, 0, "", len(labels)),
             ("a nonzero exit fails every operation", lambda p: None, 1, "", attempted)]
    condition = manifest["conditions"][0]["name"]
    failed_line = "condition %s : x\n  %s FAILED: injected\n" % (condition, labels[0])
    cases.append(("a reported FAILED gene fails that gene", lambda p: None, 0, failed_line, 1))
    for name, damage, code, stdout, expected in cases:
        broken = os.path.join(dirs.base, "broken")
        shutil.rmtree(broken, ignore_errors=True)
        shutil.copytree(cold_n, broken)
        damage(os.path.join(broken, first))
        _, failed, _ = bench.check_outputs(manifest, inputs, broken, code, stdout, dict(reference))
        check("checker: " + name, failed == expected,
              "expected %d failed, counted %d" % (expected, failed))

    # stream: threads, and equality with a batch run at the same lambda.
    dirs = bench.Dirs("selftest_stream")
    _, manifest, _ = bench.setup("stream", seed, dirs)
    stream_n, stream_outcome = run_into(manifest, dirs, "stream_threads_n", bench.THREADS)
    stream_1, _ = run_into(manifest, dirs, "stream_threads_1", 1)
    check("stream: --threads 1 and --threads %d profiles are byte-identical" % bench.THREADS,
          same_files(stream_1, stream_n))
    batch_manifest = {k: v for k, v in manifest.items() if k not in ("records", "times")}
    batch, _ = run_into(batch_manifest, dirs, "run_fixed_lambda", bench.THREADS,
                        ["--lambda", repr(manifest["lambda"])])
    streamed = os.path.join(stream_n, "streamed.csv")
    batched = bench.output_files(batch_manifest, batch)[manifest["conditions"][0]["name"]]
    check("stream: final profiles equal `run --lambda %r` bit for bit" % manifest["lambda"],
          os.path.exists(batched) and filecmp.cmp(streamed, batched, shallow=False))
    inputs = dirs.input_set(0)
    reference = {}
    attempted, failed, _ = bench.check_outputs(manifest, inputs, stream_n, 0,
                                               stream_outcome.stdout, reference)
    updates = len(bench.gene_labels(manifest, inputs)) * manifest["timepoints"]
    check("checker: a clean stream output has no failed updates",
          attempted == updates and failed == 0)
    broken = os.path.join(dirs.base, "broken")
    shutil.rmtree(broken, ignore_errors=True)
    shutil.copytree(stream_n, broken)
    corrupt_value(os.path.join(broken, "streamed.csv"))
    _, failed, _ = bench.check_outputs(manifest, inputs, broken, 0, "", reference)
    check("checker: a changed stream value fails that gene's updates",
          failed == manifest["timepoints"])

    print("self-test: %d of %d checks passed" % (sum(outcomes), len(outcomes)))
    return 0 if all(outcomes) else 1
