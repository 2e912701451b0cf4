"""Pins what the CLI prints and writes: the `--help` of `sparseview` and of
each subcommand at 80 columns, each report on stdout and in `--out`, the
files the writing subcommands leave, and the stderr of one successful call
of every subcommand."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from sparseview.cli import run

SUBCOMMANDS = ("parse", "stats", "communities", "partition", "sample", "coverage",
               "filter-depth", "pose-eval", "synth")


def call(argv):
    """(exit code, stdout, stderr) of one `run`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def sha(text) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


# sha256 of the help text; argparse wraps it to $COLUMNS, and its layout
# differs between Python versions (3.13's top-level help does), so these are
# the bytes under the tier-1 job's Python, 3.11
HELP_DIGESTS = {
    "sparseview": "cf3546ea2afe082fe4e23124540eb8847252e219a7a9c45e682ec2f68ddc6832",
    "parse": "234db5f1c45d44ca7bcdee10f7dec0b072f940f4b0a34deecc636bc863b41dee",
    "stats": "b39b90fd2be4158b9e7b5b01b98a5025cbb8bd8da7acc3890c6a03c50c62d27b",
    "communities": "1213ca988a5b1e18cdee071711fe005d1014d73b4f358dc9dbce2e0fa19d7c6f",
    "partition": "da47dfa7273487d8472b5fe84c30292c7b75fe93687e93b73c7f151d9227c441",
    "sample": "be63147db2d122ca24ff1c77b71b3130d7c7e044d3f8e3b29fbee57f9d2fc9fb",
    "coverage": "c8eeb3a307112bd7c91ac52679b577cd52d0826e5796c87a3bf52f0401d51dac",
    "filter-depth": "c717ae6b93d848a878d967939aa857d287d98825b682b5dcb0e6b703d56f929e",
    "pose-eval": "3ef083eddb13c33be840680ff78938e71ea1c661f7cddf80bdf8df6406fe5b9d",
    "synth": "7ca34a626f11771b55d7c14d99fdce56dc2ac94ec87e18c45c9bfbe6db70885d",
}


def test_help_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for name in HELP_DIGESTS:
        code, out, err = call(["--help"] if name == "sparseview" else [name, "--help"])
        assert (code, err) == (0, "")
        got[name] = sha(out)
    assert got == HELP_DIGESTS


# (name, argv) of the calls that write files, in order; {tmp} is the test's
# directory and a call may read what an earlier one wrote
WRITES = [
    ("synth-ring", ["synth", "--kind", "ring", "--clusters", "6", "--cluster-size", "5",
                    "--noise", "0.3", "--seed", "3", "--out", "{tmp}/ring"]),
    ("synth-clean", ["synth", "--kind", "ring", "--clusters", "6", "--cluster-size", "5",
                     "--out", "{tmp}/clean"]),
    ("synth-grid", ["synth", "--kind", "grid", "--clusters", "9", "--seed", "1",
                    "--out", "{tmp}/grid"]),
    ("synth-depth", ["synth", "--kind", "depth", "--seed", "5", "--out", "{tmp}/fix"]),
    ("sample", ["sample", "--scene", "{tmp}/ring", "--n", "8", "--ncc", "2", "--batches", "3",
                "--seed", "2", "--out", "{tmp}/b.jsonl"]),
    ("filter-depth", ["filter-depth", "--geom", "{tmp}/fix/geom.pfm", "--mono",
                      "{tmp}/fix/mono.pfm", "--out", "{tmp}/f.pfm", "--report", "{tmp}/f.json"]),
]

# (name, argv) of the report calls; each runs without and then with --out
REPORTS = [
    ("parse", ["parse", "--scene", "{tmp}/ring"]),
    ("stats", ["stats", "--scene", "{tmp}/ring"]),
    ("communities", ["communities", "--scene", "{tmp}/grid", "--seed", "4"]),
    ("partition", ["partition", "--scene", "{tmp}/ring", "--ncc", "3", "--seed", "1"]),
    ("coverage", ["coverage", "--scene", "{tmp}/ring", "--batches", "{tmp}/b.jsonl"]),
    ("pose-eval", ["pose-eval", "--pred", "{tmp}/ring/images.txt",
                   "--gt", "{tmp}/clean/images.txt"]),
]

# sha256 over the relative path and bytes of each file a call wrote, or of
# the report
OUTPUT_DIGESTS = {
    "synth-ring": "87f8aef5310dd1419c148d03dc55359bc3758f93d9dfeec0d529c4328a2e2ab5",
    "synth-clean": "3c3422e1dbb6dd95229c71627e56b0a1b3185aa6f86f7760084b0be3d69c3689",
    "synth-grid": "43effb409d22732881b4c6312e55ade5fae9173573f256ca29842196e41855a0",
    "synth-depth": "38b754f37765f5f136a72b99ddd103ae8af78caa6c3f4d0a6a9f2a051d709f35",
    "sample": "d75d9330dd453400d28a35b6938ad006f68b0bcd2087151b46fe125c574ab3e8",
    "filter-depth": "780533b2db6793346f7b087730240a2e7a3799da94c935dbbd540f4d221c2b85",
    "parse": "47ef56bb2dcb9f2c0a94387827b77d299eb8458d64fba0d2397452a64d071502",
    "stats": "4233ece0dd76586e29ed0c817f4c8bd3ef3643077fd10790745c853707f88cb8",
    "communities": "efafde8e38e618cf489d76745138c6e13ea9a75045b3e1c8c32e1ca7d7a15863",
    "partition": "9c83dec1b284cf16e6a1231eced44d14b15124961a8b4132901043cb79b211b8",
    "coverage": "75e6cbed82e2508f6a33af41d69fec90b0be6d9012d198f700e853a56f40b250",
    "pose-eval": "c7fdf7d523c9afdf4099e3a6934bea23ff8429314401fd53db2c2cee913c51b5",
}

# the stderr of each call without --quiet
STDERR = {
    "synth-ring": "seed 3\nwrote scene ring-6x5-s3 to {tmp}/ring\n",
    "synth-clean": "seed 0\nwrote scene ring-6x5-s0 to {tmp}/clean\n",
    "synth-grid": "seed 1\nwrote scene grid-9x9-s1 to {tmp}/grid\n",
    "synth-depth": "seed 5\nwrote depth fixture to {tmp}/fix\n",
    "sample": "seed 2\nwrote 3 batches to {tmp}/b.jsonl\n",
    "filter-depth": "scale 1.965039413744374 removed 164 kept 3932\n",
    "parse": "",
    "stats": "",
    "communities": "seed 4\nmodularity 0.6213589891975309 levels 4\n",
    "partition": "seed 1\n",
    "coverage": "",
    "pose-eval": "",
}


def written(tmp_path, before) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file() and p not in before):
        h.update(str(path.relative_to(tmp_path)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_outputs_and_stderr_are_pinned(tmp_path):
    digests, stderr = {}, {}

    def fill(argv):
        return [a.format(tmp=tmp_path) for a in argv]

    for name, argv in WRITES:
        before = set(tmp_path.rglob("*"))
        code, out, err = call(fill(argv))
        assert (code, out) == (0, ""), err
        digests[name] = written(tmp_path, before)
        stderr[name] = err.replace(str(tmp_path), "{tmp}")
    for name, argv in REPORTS:
        code, printed, err = call(fill(argv))
        assert code == 0, err
        report = tmp_path / f"{name}.txt"
        code, out, err_out = call(fill(argv) + ["--out", str(report)])
        assert (code, out, err_out) == (0, "", err)
        assert report.read_bytes() == printed.encode()
        digests[name] = sha(printed)
        stderr[name] = err
    assert {argv[0] for _, argv in WRITES + REPORTS} == set(SUBCOMMANDS)
    assert digests == OUTPUT_DIGESTS
    assert stderr == STDERR
