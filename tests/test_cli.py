"""End-to-end command-line behavior: files in, JSON out, exit codes."""

import argparse
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cdboost.cli import _merge_config, build_parser, main
from cdboost.data import GroupStructure, write_dataset_csv, write_groups_tsv

from conftest import make_lr_bundles, pin_message


def _write_problem(tmp_path, rng, M=2, n=40, p=6, K=2):
    bundles = make_lr_bundles(rng, M=M, n=n, p=p, scale=2.0)
    paths = []
    for m, b in enumerate(bundles):
        path = tmp_path / f"data_{m}.csv"
        write_dataset_csv(path, b.X, b.y)
        paths.append(str(path))
    groups = tmp_path / "groups.tsv"
    write_groups_tsv(groups, GroupStructure(np.repeat(np.arange(K), p // K)))
    return paths, str(groups)


def _read_json(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_small_example_writes_files(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--preset", "small-example", "--seed", "0",
                 "--outdir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 5  # 3 datasets, groups, truth
    for path in printed:
        assert Path(path).exists()
    truth = json.loads((out / "truth.json").read_text())
    assert truth["K"] == 4 and truth["n_ig"] == 4


def test_simulate_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--preset", "small-example", "--seed", "3",
          "--outdir", str(a)])
    main(["simulate", "--preset", "small-example", "--seed", "3",
          "--outdir", str(b)])
    for name in ("dataset_1.csv", "dataset_2.csv", "dataset_3.csv",
                 "groups.tsv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--rho", "nan,0.5,0.5"), ("--rho", "0.8,0.2,0"), ("--design", "S3"),
    ("--scheme", "fixed"), ("--sigma2", "2"), ("--n", "1"), ("--p", "50"), ("--k", "2"),
])
def test_simulate_small_example_refuses_design_flags(tmp_path, capsys, flag, value):
    """The small-example design is fixed: a design flag, even at its default
    value, or the same key in a config file, exits 3 naming the flag and
    writes nothing."""
    out = tmp_path / "sim"
    base = ["simulate", "--preset", "small-example", "--seed", "0", "--outdir", str(out)]
    cfg = tmp_path / "design.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    for argv in ([*base, flag, value], [*base, "--config", str(cfg)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1, err
    assert not out.exists()


# sha256 of every file `cdboost simulate --preset reduced --seed 1` writes,
# recorded with the cell-by-cell csv.writer writer (now
# oracles.write_dataset_csv_cellwise) before data rows were joined directly,
# under OpenBLAS SkylakeX (the core the pytest header prints)
_REDUCED_SEED1_SHA256 = {
    "lr": {
        "dataset_1.csv": "d3700af0101ef0b80155c85f8cb83a7d18f801c6824db99d78bd1c9f104c0661",
        "dataset_2.csv": "adf38ce09ec7917df49f7f33bbd3233ba1deed10a14c9bd8ed2b33530bbbee98",
        "dataset_3.csv": "baec3177dec1c8a79cef63dfacd01cd339b89c356ae9540207724b53a04164e9",
        "groups.tsv": "cdb0f088e55e085894f71168aff1816ce2c713ccc26658a442fa0560cbb99f00",
        "truth.json": "35192ab2067ad6067d19f464d7f2b10909237b75df80251f03da2ce57ac56c2b",
    },
    "aft": {
        "dataset_1.csv": "391ea9473362c01cfdeeab2ca1a1017d9776633f7ec266038d48f0b53ea01d7e",
        "dataset_2.csv": "3c12c4ce0737b76f8117a060d3780e3d56a1ebebecd83b2dab8ceab2635bc762",
        "dataset_3.csv": "39d4b84b75b8c06fa0e5b76d0abb9f392a9511b3ae97917e6cae533e0b0cdf4c",
        "groups.tsv": "cdb0f088e55e085894f71168aff1816ce2c713ccc26658a442fa0560cbb99f00",
        "truth.json": "4cfe9bf5dfe3051db2061f693eb6c90caafbc6ce6f0b495774b4ac6a165ffe02",
    },
}


@pytest.mark.parametrize("model", ["lr", "aft"])
def test_simulate_bytes_pinned(tmp_path, capsys, model):
    out = tmp_path / model
    assert main(["simulate", "--preset", "reduced", "--model", model, "--seed", "1",
                 "--outdir", str(out)]) == 0
    capsys.readouterr()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.iterdir())}
    assert got == _REDUCED_SEED1_SHA256[model], pin_message()


# sha256 of every file of the small example (seed 0, lr and aft) and of
# the reduced preset under the fixed scheme with every scenario drawn,
# recorded before the scenarios were stated as one table, under SkylakeX
_SCENARIO_SHA256 = {
    "small-example lr": {
        "dataset_1.csv": "25e986f418f4d79984c25c9095055afece56a8b802c59922c2ca655ecb387032",
        "dataset_2.csv": "23aff289f8a5f062e5da9a88af8f55a5f4c240c45bf4ad21bcebc146de4bbfbc",
        "dataset_3.csv": "100058a47edbc5a389db85d7bd3f7b5925ce474bff09b438ab0f67fae7e45641",
        "groups.tsv": "f251786b532630fc5ebb60ff8e991267f4276b995ea8e890a93cc3c0733abfaa",
        "truth.json": "6f436fac942b6aa89cb87cfd00f8bb93446456769a1f3841d28a803d7d64fa09",
    },
    "small-example aft": {
        "dataset_1.csv": "61225a12fde16fb78d142b95496a85b34070800940138a930477021f7d0ad6d5",
        "dataset_2.csv": "ecf48f348aee08a64e9fd9c3073590037ea5c45b2747ae83a00c93879fb5f116",
        "dataset_3.csv": "3e81dd80931aa267356fa197de641773098a9591f60d3615b55999e7e0362c25",
        "groups.tsv": "f251786b532630fc5ebb60ff8e991267f4276b995ea8e890a93cc3c0733abfaa",
        "truth.json": "442b0766f48444d20ec63b58c4ef84329e3b6dffaa2c54193ea4e01eeaed9eeb",
    },
    "reduced S3 aft": {
        "dataset_1.csv": "048ea91d508eed256220ce3ed3a64821d1fd3cfec81d36c90f8ba3a2a3a1a3c8",
        "dataset_2.csv": "dfb7d1663dadb1dddb3c6df34b2f7316090292032a3e5d0c387df08bf865a085",
        "dataset_3.csv": "74ec57d3276b6802160b018b27ec19082f91181801788f4407fda5cc04b8036c",
        "groups.tsv": "cdb0f088e55e085894f71168aff1816ce2c713ccc26658a442fa0560cbb99f00",
        "truth.json": "a590127c3f119bf3080e7261d646cae2f784f3dfa65157a1afc93c3d91b46ac4",
    },
}


@pytest.mark.parametrize("label, flags", [
    ("small-example lr", ["--preset", "small-example", "--seed", "0"]),
    ("small-example aft", ["--preset", "small-example", "--model", "aft", "--seed", "0"]),
    ("reduced S3 aft", ["--preset", "reduced", "--rho", "0.4,0.3,0.3", "--design", "S3",
                        "--model", "aft", "--seed", "1"]),
])
def test_simulate_scenario_bytes_pinned(tmp_path, capsys, label, flags):
    out = tmp_path / "sim"
    assert main(["simulate", *flags, "--outdir", str(out)]) == 0
    capsys.readouterr()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.iterdir())}
    assert got == _SCENARIO_SHA256[label], pin_message()


@pytest.fixture(scope="module")
def reduced_seed1(tmp_path_factory):
    root = tmp_path_factory.mktemp("reduced")
    for model in ("lr", "aft"):
        assert main(["simulate", "--preset", "reduced", "--model", model, "--seed", "1",
                     "--outdir", str(root / model)]) == 0
    return root


# sha256 of `cdboost fit --iters 200` JSON (cd with --lambda auto, sep and
# pool) on the reduced seed-1 files pinned above, recorded before loading
# and pooling stopped copying arrays; int and cd at a fixed lambda were
# recorded before the starting classes were set by the fitter's kind;
# all under SkylakeX
_FIT_SEED1_SHA256 = {
    ("lr", True): {
        "cd-sboost": "1cbadab45d040e5c327147b71e52a8f5124a77fd8c0d7c6fe21d9391afea24b2",
        "sep-sboost": "2108465a4ff6f2b9fed2700a10b67dc1f29e04e208cf76ab2d2d606bc4db8a3c",
        "pool-sboost": "efa219c23db3a84cb10d79a4f66069dcbb3bce9541dcc6ea9731375f95138efd",
        "int-sboost": "d55c32ee350d3da9adb5fdf3d2b18924e261bca68d8a7108eb92801451d943fa",
        "cd-sboost --lambda 0.5": "2199f0a8903bc5c7f0ae3fa752e28ea6a815e0ab7bdf8e4069e20ae693300e03",
    },
    ("lr", False): {
        "cd-sboost": "deb10730b10ec0a1f488db02ef7bc9dc523ab912234fe134ccbbe51b86440e74",
        "sep-sboost": "5637f0f60efa6e7b04495ff95ca08fda43b095cd133c1f919a0a5063cbf9c7ab",
        "pool-sboost": "84163f5e0fa9a4a399939dc4ff0964338551a3e99eea5f468919aedde2f84b81",
        "int-sboost": "05d93469a6db3d274d6522c94f5cf8ea585dcf43d07a67cff22e05cc3d7dc916",
        "cd-sboost --lambda 0.5": "048026b4de2b5470f550559e83f9910805d9e986ac1082bac0f8b404a8c3fa1c",
    },
    ("aft", True): {
        "cd-sboost": "3fdde6b252d29fea0d6f79fed220ed8fcbac53e8564fd0947d4dd7844205ed25",
        "sep-sboost": "19c239d99b695a29a3a2c987fe30ad2c63f4a2a2edfcefa1d8827b4b5657007b",
        "pool-sboost": "a63a515245ad30be78b5ca170299e1793f25aa7b71464598cf40edf928720b16",
        "int-sboost": "8a3b4a859a3276399a168497defd3fbcce394a17a5f1d850c73dfaefb4127497",
        "cd-sboost --lambda 0.5": "7f168e37397759cf49545831d363c288ed5b430d92566b02b1882df4ecbf0237",
    },
    ("aft", False): {
        "cd-sboost": "9ed907d6fe86eb2a7b333e46ae944b8485a9bead4dc123a454fe2e356d05acb7",
        "sep-sboost": "47cf6c5391195565112bf7f3638e8220f33a4263e233ac4be1424e8e0b242e2f",
        "pool-sboost": "0cce1245ed9d9124805621bc4b4d63c2e740dd4bba5a6798546df6b384dcf4b0",
        "int-sboost": "7db846f1a7f4c97115df89763a30da2d3859f1f7f084155f7266eb7b0d1ae0cd",
        "cd-sboost --lambda 0.5": "75a27b65a5ca0eb1952f98c41d217e5c0203198d092fc8da53ba9f3d7f51dc3e",
    },
}


# sha256 over the method, lambda, t_hat, support and classes of the same
# runs, recorded under SkylakeX before survival data was sorted on entry;
# every one is the same under Haswell and Zen
_FIT_SEED1_SELECTIONS_SHA256 = {
    ("lr", True): {
        "cd-sboost": "9c4ff1e44d80d38d600c8ca87d07197509dfa9478af96e0a2bfc776a2471a56d",
        "sep-sboost": "30c1b7c42e5f25704df67f3cf021c1c1f38fd52ab8f6bf78ed8da4d3b9a62c2b",
        "pool-sboost": "629f93d9d8cf102e78cc5bc6800a2888db2f80a9cac74fc8f2f1eb2338089b57",
        "int-sboost": "f636a1acd0575c95d0ef570651f50e945dd5d8ff1d92688cc957f4e9756abb07",
        "cd-sboost --lambda 0.5": "ae5887a70a2f22abe288123864f40e4a9acdb4201d1f07420e0ac1a97b2425d7",
    },
    ("lr", False): {
        "cd-sboost": "9c4ff1e44d80d38d600c8ca87d07197509dfa9478af96e0a2bfc776a2471a56d",
        "sep-sboost": "30c1b7c42e5f25704df67f3cf021c1c1f38fd52ab8f6bf78ed8da4d3b9a62c2b",
        "pool-sboost": "629f93d9d8cf102e78cc5bc6800a2888db2f80a9cac74fc8f2f1eb2338089b57",
        "int-sboost": "f636a1acd0575c95d0ef570651f50e945dd5d8ff1d92688cc957f4e9756abb07",
        "cd-sboost --lambda 0.5": "ae5887a70a2f22abe288123864f40e4a9acdb4201d1f07420e0ac1a97b2425d7",
    },
    ("aft", True): {
        "cd-sboost": "d596236233af28b36f00c859adb0f7291beb5de27c512178d2e3c0436c68e276",
        "sep-sboost": "abb5c91e7f44cd40e0c7a78ab54193aba40ddf10270519458dfd884455ad740d",
        "pool-sboost": "b352746f3443127d5f73ab8289d524e0cd4188463bf92a0872125fb7db8dce99",
        "int-sboost": "5e0c19b08fab110d0fa951bf24044dde087965716f00119a7c9a1aebfc52b2c9",
        "cd-sboost --lambda 0.5": "661d94e2571208b47a6052b228ce46947aae84474f7eb0f6dff707836f6187e9",
    },
    ("aft", False): {
        "cd-sboost": "d596236233af28b36f00c859adb0f7291beb5de27c512178d2e3c0436c68e276",
        "sep-sboost": "abb5c91e7f44cd40e0c7a78ab54193aba40ddf10270519458dfd884455ad740d",
        "pool-sboost": "b352746f3443127d5f73ab8289d524e0cd4188463bf92a0872125fb7db8dce99",
        "int-sboost": "5e0c19b08fab110d0fa951bf24044dde087965716f00119a7c9a1aebfc52b2c9",
        "cd-sboost --lambda 0.5": "661d94e2571208b47a6052b228ce46947aae84474f7eb0f6dff707836f6187e9",
    },
}


def _fit_seed1(data, standardize) -> dict[str, bytes]:
    """The `cdboost fit` JSON of each run of `_FIT_SEED1_SHA256` on `data`."""
    argv = ["fit", "--data", *(str(data / f"dataset_{m}.csv") for m in (1, 2, 3)),
            "--groups", str(data / "groups.tsv"), "--iters", "200"]
    if not standardize:
        argv.append("--no-standardize")
    got = {}
    for label, flags in (("cd-sboost", ["--lambda", "auto"]), ("sep-sboost", []),
                         ("pool-sboost", []), ("int-sboost", []),
                         ("cd-sboost --lambda 0.5", ["--lambda", "0.5"])):
        out = data / f"{label.replace(' ', '')}-{standardize}.json"
        assert main([*argv, "--method", label.split()[0], *flags, "--output", str(out)]) == 0
        got[label] = out.read_bytes()
    return got


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_fit_bytes_pinned(reduced_seed1, capsys, model, standardize):
    """Pins the fit output for both loaded layouts: standardized in place,
    and the raw parsed table that goes to BLAS under --no-standardize."""
    got = {label: hashlib.sha256(out).hexdigest()
           for label, out in _fit_seed1(reduced_seed1 / model, standardize).items()}
    capsys.readouterr()
    assert got == _FIT_SEED1_SHA256[model, standardize], pin_message()


def _selections(fit_json: bytes, stop: bool = True) -> str:
    """sha256 of a fit's method, lambda, ``t_hat`` (unless not ``stop``),
    support and classes."""
    payload = json.loads(fit_json)
    record = (payload["method"], payload["lambda"],
              *([payload["t_hat"]] if stop else []),
              [(j, m) for j, m, _ in payload["coefficients"]],
              [group["classes"] for group in payload["group_verdicts"]])
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_fit_selections_pinned(reduced_seed1, capsys, model, standardize):
    """The selection-level twin of the fit byte pin: no coefficient value or
    trace bit enters it, so it holds under more OpenBLAS cores."""
    got = {label: _selections(out)
           for label, out in _fit_seed1(reduced_seed1 / model, standardize).items()}
    capsys.readouterr()
    assert got == _FIT_SEED1_SELECTIONS_SHA256[model, standardize], pin_message()


# sha256 of `cdboost fit --lambda 2 --iters 1000 --nu 0.5` JSON on
# `simulate --preset reduced --n 60 --p 80 --k 4 --seed 2`, with the stop
# of each fit, all below the cap (sep's datasets stop at 82, 233 and 190);
# recorded before the path was held as per-dataset step arrays, under SkylakeX
_EARLY_STOP_SHA256 = {
    "cd-sboost": (166, "f022312862d8020c49bc78aa2e26e635ee911a8ef49dae62bcb879e0eb4c69a1"),
    "sep-sboost": (233, "248996f6d916e775171b6a38ed97c74f5d06c3a366fc013eb97a10f2e5e889ca"),
    "int-sboost": (210, "ab719b59b7149a27a0f2c23f66cf8c8b7dd16de2b26ef63864fa783108255270"),
    "pool-sboost": (401, "1a3c33b103f3ddaa3f0558c34f64c5fcab18542da7271f7049d1a8651c8c9213"),
}


def _early_stop_fits(tmp_path) -> dict[str, bytes]:
    """The `cdboost fit` JSON of each method of `_EARLY_STOP_SHA256`."""
    data = tmp_path / "sim"
    assert main(["simulate", "--preset", "reduced", "--n", "60", "--p", "80", "--k", "4",
                 "--seed", "2", "--outdir", str(data)]) == 0
    got = {}
    for method in _EARLY_STOP_SHA256:
        out = tmp_path / f"{method}.json"
        assert main(["fit", "--data", *(str(data / f"dataset_{m}.csv") for m in (1, 2, 3)),
                     "--groups", str(data / "groups.tsv"), "--method", method,
                     "--lambda", "2", "--iters", "1000", "--nu", "0.5",
                     "--output", str(out)]) == 0
        got[method] = out.read_bytes()
    return got


def test_fit_early_stop_bytes_pinned(tmp_path, capsys):
    """Pins fits that stop before the iteration cap, so the replay up to
    each stop, and sep's separate stops, are covered."""
    got = {method: (json.loads(out)["t_hat"], hashlib.sha256(out).hexdigest())
           for method, out in _early_stop_fits(tmp_path).items()}
    capsys.readouterr()
    assert got == _EARLY_STOP_SHA256, pin_message()


# ``_selections`` of the same runs, recorded under SkylakeX; each moves under
# Haswell and Zen, through ``t_hat`` alone (cd stops at 169, pool at 235):
# the trace is flat near its minimum
_EARLY_STOP_SELECTIONS_SHA256 = {
    "cd-sboost": "b157d37c0353d3d80b21ba8529130d4ede2556348b96407f43f32ae3fa9f3951",
    "sep-sboost": "e498a3b169e412806655b6fff25e3523d9d8919fe8abc91c74b93a19c285e93d",
    "int-sboost": "ae7c166fbd9308c2e1d502fc47532801265e84a7d06bf6433fe5ae0e813ecc2c",
    "pool-sboost": "aac605c6458db8f9c1b9721cc82d13aa236f243f42eb60118743d6542e6ad511",
}


def test_fit_early_stop_selections_pinned(tmp_path, capsys):
    """The selection-level twin of the early-stop byte pin."""
    got = {method: _selections(out) for method, out in _early_stop_fits(tmp_path).items()}
    capsys.readouterr()
    assert got == _EARLY_STOP_SELECTIONS_SHA256, pin_message()


# ``_selections`` of the same runs without ``t_hat``, recorded under
# SkylakeX; the same under Haswell, Zen and Prescott, where the stops move
# (pool stops at 401, 235, 235 and 381)
_EARLY_STOP_SUPPORTS_SHA256 = {
    "cd-sboost": "adb4d3e3c367823d626690361c04fb91d60199998a24dc795f89252e959b46e0",
    "sep-sboost": "c1697ee36d443094c7d5aa1088a5e7ead46832350941cd25a907e7069cb51c21",
    "int-sboost": "d88725bcf58b8fccd89bb07b04c70455238d1d71851c348521d703ada6aaaa6e",
    "pool-sboost": "7285ccced5075203ad07c3aacf7cc8e363b4fbb0473cbbcf41b317e977e7c9fb",
}


def test_fit_early_stop_supports_pinned(tmp_path, capsys):
    """The kernel-portable twin of the early-stop pins: method, lambda,
    support and classes, without the stop."""
    got = {method: _selections(out, stop=False)
           for method, out in _early_stop_fits(tmp_path).items()}
    capsys.readouterr()
    assert got == _EARLY_STOP_SUPPORTS_SHA256, pin_message()


# sha256 of `cdboost fit --lambda auto --iters 300` JSON (cd, and int, which
# takes no lambda) on three LR datasets whose column 2
# is constant, so standardized to zero: every subset has a zero denominator
# there; recorded before the increments skipped the masked divide, under
# SkylakeX
_CONSTANT_COLUMN_SHA256 = {
    "cd-sboost": "b6b25db462a17ca1d64507b2f1af294358192c6e7f7e5ef96d898ca569824f22",
    "int-sboost": "beea5338d8379abaeaaa87182eab7c981c3b21f0083660904fd6e0041a8bb67b",
}


def _constant_column_fits(tmp_path) -> dict[str, bytes]:
    """The `cdboost fit` JSON of each method of `_CONSTANT_COLUMN_SHA256`."""
    paths, groups = _write_problem(tmp_path, np.random.default_rng(11), M=3, p=6)
    for path in paths:
        text = Path(path).read_text().splitlines()
        rows = [line.split(",") for line in text]
        for row in rows[1:]:
            row[3] = "1.5"          # column 2, after y
        Path(path).write_text("\n".join(",".join(row) for row in rows) + "\n")
    got = {}
    for method in _CONSTANT_COLUMN_SHA256:
        out = tmp_path / f"{method}.json"
        with pytest.warns(UserWarning, match="zero-norm"):
            assert main(["fit", "--data", *paths, "--groups", groups, "--method", method,
                         "--lambda", "auto", "--iters", "300", "--output", str(out)]) == 0
        got[method] = out.read_bytes()
    return got


def test_fit_with_a_constant_column_bytes_pinned(tmp_path, capsys):
    got = {method: hashlib.sha256(out).hexdigest()
           for method, out in _constant_column_fits(tmp_path).items()}
    capsys.readouterr()
    assert got == _CONSTANT_COLUMN_SHA256, pin_message()


# ``_selections`` of the same runs, recorded under SkylakeX; the same under
# Haswell and Zen
_CONSTANT_COLUMN_SELECTIONS_SHA256 = {
    "cd-sboost": "ca0a6424f153ff2d59221377e1dc9d6a5b8c4cf0eeff853e6b2b5d5b631ead99",
    "int-sboost": "b5da386502d3d4b9bbf7806cee4e4a551211b48b2545f403f10009f449b96d16",
}


def test_fit_with_a_constant_column_selections_pinned(tmp_path, capsys):
    """The selection-level twin of the constant-column byte pin."""
    got = {method: _selections(out) for method, out in _constant_column_fits(tmp_path).items()}
    capsys.readouterr()
    assert got == _CONSTANT_COLUMN_SELECTIONS_SHA256, pin_message()


def test_simulate_design_flag_sets_scheme_and_noise(tmp_path):
    out = tmp_path / "s3"
    code = main(["simulate", "--preset", "standard", "--n", "30", "--p", "60",
                 "--k", "3", "--design", "S3", "--seed", "1",
                 "--outdir", str(out)])
    assert code == 0
    truth = json.loads((out / "truth.json").read_text())
    values = {coef[2] for coef in truth["beta"]}
    assert values == {0.5}
    assert truth["sigma2"] == 1.0
    # explicit flags still win over the named design
    out2 = tmp_path / "s3random"
    main(["simulate", "--preset", "standard", "--n", "30", "--p", "60",
          "--k", "3", "--design", "S3", "--scheme", "random", "--seed", "1",
          "--outdir", str(out2)])
    truth2 = json.loads((out2 / "truth.json").read_text())
    assert len({coef[2] for coef in truth2["beta"]}) > 1


def test_simulate_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--outdir", str(tmp_path)])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_small_example_finds_common_group(tmp_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--preset", "small-example", "--seed", "0",
          "--outdir", str(sim)])
    capsys.readouterr()
    code = main(["fit",
                 "--data", str(sim / "dataset_1.csv"), str(sim / "dataset_2.csv"),
                 str(sim / "dataset_3.csv"),
                 "--groups", str(sim / "groups.tsv"),
                 "--method", "cd-sboost", "--lambda", "2.0", "--iters", "1500"])
    assert code == 0
    payload = _read_json(capsys)
    assert payload["method"] == "cd_sboost"
    assert payload["model"] == "lr"
    assert payload["lambda"] == 2.0
    assert 1 <= payload["t_hat"] <= 1500
    assert len(payload["objective_trace"]) == 1500
    assert payload["coefficients"], "expected a nonempty model"
    assert np.isfinite(payload["hdbic"])
    verdicts = {v["group"]: v["verdict"] for v in payload["group_verdicts"]}
    # the first group is fully common in this example
    assert verdicts[0] == "common"


def test_fit_pool_reports_everything_common(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    code = main(["fit", "--data", *paths, "--groups", groups,
                 "--method", "pool-sboost", "--iters", "60"])
    assert code == 0
    payload = _read_json(capsys)
    assert all(v["verdict"] == "common" for v in payload["group_verdicts"])


def test_fit_writes_output_file(tmp_path, rng):
    paths, groups = _write_problem(tmp_path, rng)
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", *paths, "--groups", groups,
                 "--method", "int-sboost", "--iters", "40",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "int_sboost"


def test_fit_auto_lambda_with_grid(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    code = main(["fit", "--data", *paths, "--groups", groups,
                 "--lambda", "auto", "--grid", "0,0.5,2", "--iters", "50"])
    assert code == 0
    payload = _read_json(capsys)
    assert payload["lambda"] in (0.0, 0.5, 2.0)


def test_fit_config_file_defaults_and_precedence(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters = 37\nlambda = 0.5  # comment\n\n")
    code = main(["fit", "--data", *paths, "--groups", groups,
                 "--config", str(cfg)])
    assert code == 0
    payload = _read_json(capsys)
    assert len(payload["objective_trace"]) == 37
    assert payload["lambda"] == 0.5
    # an explicit flag beats the file
    code = main(["fit", "--data", *paths, "--groups", groups,
                 "--config", str(cfg), "--iters", "22"])
    assert code == 0
    payload = _read_json(capsys)
    assert len(payload["objective_trace"]) == 22
    assert payload["lambda"] == 0.5


def test_fit_rejects_unknown_config_key(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--config", str(cfg)]) == 3


def test_fit_sboost_needs_single_dataset(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--method", "sboost"]) == 3
    assert main(["fit", "--data", paths[0], "--groups", groups,
                 "--method", "sboost", "--iters", "40"]) == 0


def test_fit_unknown_method_exit_code(tmp_path, rng):
    paths, groups = _write_problem(tmp_path, rng)
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--method", "ridge"]) == 3


# ---------------------------------------------------------------------------
# exit codes for broken input
# ---------------------------------------------------------------------------


def test_malformed_csv_exit_2(tmp_path, rng):
    paths, groups = _write_problem(tmp_path, rng)
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1,x2\n1.0,2.0\n")  # ragged row
    assert main(["fit", "--data", str(bad), "--groups", groups]) == 2


def test_malformed_config_exit_2(tmp_path, rng):
    paths, groups = _write_problem(tmp_path, rng)
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("just some words\n")
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--config", str(cfg)]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_non_finite_lambda_exit_3(tmp_path, capsys, rng, value):
    paths, groups = _write_problem(tmp_path, rng)
    assert main(["fit", "--data", *paths, "--groups", groups, "--iters", "20",
                 f"--lambda={value}"]) == 3
    assert "lambda must be finite" in capsys.readouterr().err


def test_fit_non_numeric_lambda_exit_2(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--lambda", "abc"]) == 2
    assert "'abc'" in capsys.readouterr().err
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("lambda = abc\n")
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--config", str(cfg)]) == 2


def test_non_numeric_config_value_exit_2(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    cfg = tmp_path / "iters.cfg"
    cfg.write_text("iters = abc\n")
    assert main(["fit", "--data", *paths, "--groups", groups,
                 "--config", str(cfg)]) == 2
    assert "'iters'" in capsys.readouterr().err


def test_config_values_typed_like_their_flags(tmp_path):
    """Options without a default (n, p, k, sigma2, scheme) are converted by
    their declared type, so a config file and the same flags agree."""
    base = ["benchmark", "--rho", "0.5,0.5,0", "--methods", "cd,pool",
            "--replicates", "1", "--iters", "30", "--lambda", "0.4", "--seed", "2"]
    by_flags = tmp_path / "flags.json"
    assert main([*base, "--n", "40", "--p", "50", "--k", "2", "--sigma2", "2.0",
                 "--scheme", "fixed", "--output", str(by_flags)]) == 0
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n = 40\np = 50\nk = 2\nsigma2 = 2.0\nscheme = fixed\n")
    by_file = tmp_path / "file.json"
    assert main([*base, "--config", str(cfg), "--output", str(by_file)]) == 0
    assert by_file.read_bytes() == by_flags.read_bytes()


def test_config_store_true_flag(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    argv = ["fit", "--data", *paths, "--groups", groups, "--iters", "20",
            "--lambda", "0.5"]
    assert main([*argv, "--no-standardize"]) == 0
    by_flag = capsys.readouterr().out
    cfg = tmp_path / "flag.cfg"
    cfg.write_text("no_standardize = yes\nmodel = lr\n")
    assert main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("line, key", [
    ("n = forty", "'n'"),
    ("sigma2 = loud", "'sigma2'"),
    ("scheme = bogus", "'scheme'"),
    ("model = probit", "'model'"),
    ("penalty_mode = sideways", "'penalty_mode'"),
    ("design = S9", "'design'"),
])
def test_bad_config_value_exit_2(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["benchmark", "--seed", "1", "--replicates", "1",
                 "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_non_finite_grid_value_exit_3(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng)
    assert main(["fit", "--data", *paths, "--groups", groups, "--iters", "20",
                 "--grid", "0,nan"]) == 3


def test_missing_file_exit_3(tmp_path, rng):
    paths, groups = _write_problem(tmp_path, rng)
    assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                 "--groups", groups]) == 3


def test_numeric_failure_exit_4(tmp_path, rng, monkeypatch):
    import cdboost.cli as cli
    from cdboost.data import NumericError

    paths, groups = _write_problem(tmp_path, rng)

    def explode(*args, **kwargs):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli, "stability", explode)
    assert main(["stability", "--data", *paths, "--groups", groups,
                 "--splits", "4"]) == 4


_SIM = ["simulate", "--preset", "reduced", "--p", "40", "--k", "2", "--seed", "1"]
_BENCH = ["benchmark", "--preset", "reduced", "--n", "20", "--p", "40", "--k", "2",
          "--seed", "1", "--replicates", "1", "--iters", "5"]


@pytest.mark.parametrize("case, want", [
    ("simulate-rho-nan", 3),
    ("benchmark-rho-nan", 3),
    ("benchmark-sigma2-nan", 3),
    ("simulate-n-zero-aft", 3),
    ("simulate-n-negative", 3),
    ("simulate-replicate-negative", 3),
    ("stability-sboost-two-datasets", 3),
    ("benchmark-method-twice", 3),
    ("stability-method-twice", 3),
    ("csv-not-utf8", 2),
    ("tsv-not-utf8", 2),
    ("config-not-utf8", 2),
    ("fit-grid-empty", 2),
    ("fit-grid-empty-in-config", 2),
    ("fit-grid-non-numeric", 2),
    ("fit-grid-with-fixed-lambda", 3),
    ("fit-grid-with-sep", 3),
    ("fit-grid-in-config-with-fixed-lambda", 3),
    ("fit-grid-in-config-with-pool", 3),
    ("simulate-rho-non-numeric", 2),
    ("benchmark-rho-two-values", 2),
    ("fit-workers-negative", 3),
    ("benchmark-workers-zero", 3),
    ("stability-workers-zero-in-config", 3),
    ("csv-repeated-covariate", 2),
    ("simulate-outdir-is-file", 3),
    ("simulate-outdir-under-file", 3),
    ("fit-output-under-file", 3),
    ("fit-overflow-cd", 4),
    ("fit-overflow-sep", 4),
    ("fit-overflow-pool", 4),
    ("stability-overflow", 4),
    ("fit-overflow-standardized-cd", 4),
    ("fit-overflow-standardized-sep", 4),
    ("fit-overflow-standardized-pool", 4),
    ("stability-overflow-standardized", 4),
])
def test_bad_input_exits_with_one_line_error(tmp_path, capsys, rng, case, want):
    paths, groups = _write_problem(tmp_path, rng)
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("y,x1\n1.0,café\n".encode("latin-1"))
    outdir = ["--outdir", str(tmp_path / "sim")]
    (tmp_path / "grid.cfg").write_text("grid =\n")
    (tmp_path / "grid12.cfg").write_text("grid = 1,2\n")
    (tmp_path / "workers.cfg").write_text("workers = 0\n")
    (tmp_path / "dup.csv").write_text("y,x1,x1,x2\n1.0,2.0,3.0,4.0\n2.0,1.0,0.0,1.5\n")
    (tmp_path / "dup.tsv").write_text("x1\t1\nx2\t2\n")
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    # finite cells near 1e200, whose squared norms overflow
    big = [str(tmp_path / f"big_{m}.csv") for m in range(2)]
    for path in big:
        write_dataset_csv(path, 1e200 * rng.standard_normal((12, 6)),
                          1e200 * rng.standard_normal(12))
    big_fit = ["--data", *big, "--groups", groups, "--no-standardize", "--iters", "5"]
    # standardized: one column near 1e200 under a moderate y, whose
    # deviation overflows on load (it used to scale the column to zeros)
    wide = [str(tmp_path / f"big_column_{m}.csv") for m in range(2)]
    for path in wide:
        X = rng.standard_normal((12, 6))
        X[:, 0] *= 1e200
        write_dataset_csv(path, X, rng.standard_normal(12))
    big_std = ["--data", *wide, "--groups", groups, "--iters", "5"]
    fit = ["fit", "--data", *paths, "--groups", groups, "--iters", "5"]
    argv = {
        "simulate-rho-nan": [*_SIM, *outdir, "--rho", "0.8,0.2,nan"],
        "benchmark-rho-nan": [*_BENCH, "--rho", "0.8,0.2,nan"],
        "benchmark-sigma2-nan": [*_BENCH, "--sigma2", "nan"],
        "simulate-n-zero-aft": [*_SIM, *outdir, "--n", "0", "--model", "aft"],
        "simulate-n-negative": [*_SIM, *outdir, "--n", "-5"],
        "simulate-replicate-negative": [*_SIM, *outdir, "--n", "20", "--replicate", "-1"],
        "stability-sboost-two-datasets": ["stability", "--data", *paths, "--groups", groups,
                                          "--methods", "cd,sboost", "--splits", "2",
                                          "--iters", "10", "--lambda", "0.5"],
        "benchmark-method-twice": [*_BENCH, "--methods", "cd,cd-sboost"],
        "stability-method-twice": ["stability", "--data", *paths, "--groups", groups,
                                   "--methods", "cd,cd-sboost", "--splits", "2",
                                   "--iters", "10", "--lambda", "0.5"],
        "csv-not-utf8": ["fit", "--data", str(bad), "--groups", groups],
        "tsv-not-utf8": ["fit", "--data", *paths, "--groups", str(bad)],
        "config-not-utf8": ["fit", "--data", *paths, "--groups", groups,
                            "--config", str(bad)],
        "fit-grid-empty": [*fit, "--grid", ""],
        "fit-grid-empty-in-config": [*fit, "--config", str(tmp_path / "grid.cfg")],
        "fit-grid-non-numeric": [*fit, "--grid", "0,abc"],
        "fit-grid-with-fixed-lambda": [*fit, "--lambda", "0.5", "--grid", "1,2"],
        "fit-grid-with-sep": [*fit, "--method", "sep-sboost", "--grid", "1,2"],
        "fit-grid-in-config-with-fixed-lambda": [*fit, "--lambda", "0.5",
                                                 "--config", str(tmp_path / "grid12.cfg")],
        "fit-grid-in-config-with-pool": [*fit, "--method", "pool-sboost",
                                         "--config", str(tmp_path / "grid12.cfg")],
        "simulate-rho-non-numeric": [*_SIM, *outdir, "--rho", "a,b,c"],
        "benchmark-rho-two-values": [*_BENCH, "--rho", "0.5,0.5"],
        "fit-workers-negative": [*fit, "--lambda", "1", "--workers", "-3"],
        "benchmark-workers-zero": [*_BENCH, "--workers", "0"],
        "stability-workers-zero-in-config": ["stability", "--data", *paths, "--groups", groups,
                                             "--splits", "2", "--iters", "5",
                                             "--config", str(tmp_path / "workers.cfg")],
        "csv-repeated-covariate": ["fit", "--data", str(tmp_path / "dup.csv"),
                                   "--groups", str(tmp_path / "dup.tsv"), "--iters", "5",
                                   "--lambda", "0"],
        "simulate-outdir-is-file": [*_SIM, "--outdir", str(plain)],
        "simulate-outdir-under-file": [*_SIM, "--outdir", str(plain / "sub")],
        "fit-output-under-file": [*fit, "--lambda", "0", "--output", str(plain / "x.json")],
        "fit-overflow-cd": ["fit", *big_fit, "--lambda", "0.5"],
        "fit-overflow-sep": ["fit", *big_fit, "--method", "sep-sboost"],
        "fit-overflow-pool": ["fit", *big_fit, "--method", "pool-sboost"],
        "stability-overflow": ["stability", *big_fit, "--splits", "2", "--lambda", "0.5"],
        "fit-overflow-standardized-cd": ["fit", *big_std, "--lambda", "0.5"],
        "fit-overflow-standardized-sep": ["fit", *big_std, "--method", "sep-sboost"],
        "fit-overflow-standardized-pool": ["fit", *big_std, "--method", "pool-sboost"],
        "stability-overflow-standardized": ["stability", *big_std, "--splits", "2",
                                            "--lambda", "0.5"],
    }[case]
    assert main(argv) == want
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# exit-code contract under generated bad input
# ---------------------------------------------------------------------------

# flag values, most wrong in type, range or finiteness; every number is
# small, so no case asks for many iterations, splits or processes
@pytest.mark.parametrize("case", ["fit", "fit-auto", "fit-into-directory", "benchmark-output",
                                  "benchmark-table", "stability"])
def test_unwritable_output_fails_before_any_fit(tmp_path, capsys, rng, monkeypatch, case):
    import cdboost.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a fit ran before the output path was checked")

    for name in ("select_lambda", "run_fit", "benchmark", "stability"):
        monkeypatch.setattr(cli, name, refuse)
    paths, groups = _write_problem(tmp_path, rng)
    missing = str(tmp_path / "no-such-dir" / "out.json")
    fit = ["fit", "--data", *paths, "--groups", groups]
    argv = {
        "fit": [*fit, "--lambda", "0", "--output", missing],
        "fit-auto": [*fit, "--output", missing],
        "fit-into-directory": [*fit, "--lambda", "0", "--output", str(tmp_path)],
        "benchmark-output": [*_BENCH, "--output", missing],
        "benchmark-table": [*_BENCH, "--table", missing],
        "stability": ["stability", "--data", *paths, "--groups", groups, "--output", missing],
    }[case]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


_BAD_VALUES = ["", "0", "-1", "1", "3", "2.5", "-0.5", "nan", "inf", "-inf", "1e400",
               "abc", "auto", "0,0", "1,,2", "0.8,0.2", "0.8,0.2,nan", "x,y,z", "é",
               "0.3", "ordered", "pool-sboost", "sboost", "aft", "lr", "0,1"]
_FIT_FLAGS = ["--nu", "--iters", "--lambda", "--penalty-mode", "--workers", "--grid",
              "--method", "--model"]
_SIM_FLAGS = ["--n", "--p", "--k", "--rho", "--sigma2", "--seed", "--replicate",
              "--scheme", "--design", "--model"]


def _mutate(data: bytes, edits) -> bytes:
    """Apply (position, replacement) edits; positions wrap around the data."""
    out = bytearray(data)
    for pos, chunk in edits:
        at = pos % (len(out) + 1)
        out[at:at + 1] = chunk
    return bytes(out)


_EDITS = st.lists(st.tuples(st.integers(0, 10**6),
                            st.sampled_from([b"", b",", b"\n", b"\t", b"\r", b'"', b"=",
                                             b"#", b"\x00", b"\xff", b"nan", b"inf", b"1e999",
                                             b"delta", b"y", b"-", b"1", b"0", b" "])),
                  max_size=4)


@pytest.fixture(scope="module")
def contract_problem(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths, groups = _write_problem(root, np.random.default_rng(3), n=12, p=4)
    return root, paths, groups


def _exit_code(argv) -> int:
    """main's exit code; argparse's own usage errors exit with 2 as well."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# capsys is read, and so emptied, once per example
_ONE_FIXTURE_PER_RUN = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]


@settings(max_examples=60, deadline=None, suppress_health_check=_ONE_FIXTURE_PER_RUN)
@given(fault=st.sampled_from(["csv", "tsv", "config", "flags", "all"]),
       csv_edits=_EDITS, tsv_edits=_EDITS,
       config=st.lists(st.tuples(st.sampled_from(["iters", "nu", "lambda", "model", "grid",
                                                  "method", "penalty-mode", "seed", "bogus"]),
                                 st.sampled_from(_BAD_VALUES)), max_size=3),
       flags=st.lists(st.tuples(st.sampled_from(_FIT_FLAGS), st.sampled_from(_BAD_VALUES)),
                      max_size=3))
def test_fit_exit_code_contract(contract_problem, capsys, fault, csv_edits, tsv_edits,
                                config, flags):
    """Malformed data, groups and config files and bad flag values, one
    source at a time or all at once, end in exit 0, 2, 3 or 4 with at most
    a one-line error, never a traceback."""
    root, paths, groups = contract_problem
    if fault not in ("csv", "all"):
        csv_edits = []
    if fault not in ("tsv", "all"):
        tsv_edits = []
    if fault not in ("config", "all"):
        config = []
    if fault not in ("flags", "all"):
        flags = []
    data, tsv, cfg = root / "d.csv", root / "g.tsv", root / "c.cfg"
    data.write_bytes(_mutate(Path(paths[0]).read_bytes(), csv_edits))
    tsv.write_bytes(_mutate(Path(groups).read_bytes(), tsv_edits))
    cfg.write_bytes("".join(f"{k} = {v}\n" for k, v in config).encode())
    argv = ["fit", "--data", str(data), paths[1], "--groups", str(tsv),
            "--iters", "5", "--lambda", "0.5", "--workers", "1", "--config", str(cfg)]
    argv += [part for flag, value in flags for part in (flag, value)]
    assert _exit_code(argv) in (0, 2, 3, 4)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: ") <= 1


@settings(max_examples=25, deadline=None, suppress_health_check=_ONE_FIXTURE_PER_RUN)
@given(flags=st.lists(st.tuples(st.sampled_from(_SIM_FLAGS), st.sampled_from(_BAD_VALUES)),
                      min_size=1, max_size=3))
def test_simulate_exit_code_contract(tmp_path_factory, capsys, flags):
    outdir = tmp_path_factory.mktemp("sim")
    argv = ["simulate", "--preset", "reduced", "--n", "10", "--p", "12", "--k", "2",
            "--seed", "1", "--outdir", str(outdir)]
    argv += [part for flag, value in flags for part in (flag, value)]
    assert _exit_code(argv) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


def test_aft_event_times_past_the_float_range_fail_naming_the_overflow(tmp_path, capsys):
    """At sigma2 1e6 some log event times exceed what exp can hold: simulate
    exits 4 with one error line naming the overflow and no numpy warning,
    and a benchmark replicate of the same design records that text."""
    design = ["--preset", "reduced", "--n", "30", "--p", "40", "--k", "4", "--seed", "1",
              "--model", "aft", "--sigma2", "1e6"]
    want = "censoring calibration overflows the float range: the largest log event time is "
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", *design, "--outdir", str(tmp_path / "sim")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}") and err.count("\n") == 1, err
        assert main(["benchmark", *design, "--replicates", "1", "--iters", "50",
                     "--output", str(out)]) == 0
    failures = json.loads(out.read_text())["failures"]
    assert len(failures) == 1 and failures[0].startswith(f"replicate 0: {want}"), failures


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def test_benchmark_cli_round_trip(tmp_path, capsys):
    out = tmp_path / "report.json"
    table = tmp_path / "report.txt"
    argv = ["benchmark", "--n", "40", "--p", "50", "--k", "2",
            "--rho", "0.5,0.5,0", "--methods", "cd,pool", "--replicates", "1",
            "--iters", "60", "--lambda", "0.4", "--seed", "2",
            "--output", str(out), "--table", str(table)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "ERMSE" in stdout  # table echoed when writing to a file
    payload = json.loads(out.read_text())
    assert payload["replicates"] == 1
    assert payload["failures"] == []
    assert {r["method"] for r in payload["rows"]} == {"cd", "pool"}
    assert table.read_text().startswith("method")
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first  # same seed, same bytes


def test_benchmark_rejects_bad_rho(tmp_path):
    assert main(["benchmark", "--rho", "0.5,0.5", "--seed", "1",
                 "--replicates", "1"]) == 2


def test_benchmark_requires_seed():
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--replicates", "1"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stability_cli_smoke(tmp_path, capsys, rng):
    paths, groups = _write_problem(tmp_path, rng, n=32)
    code = main(["stability", "--data", *paths, "--groups", groups,
                 "--methods", "cd,pool", "--splits", "4", "--seed", "1",
                 "--lambda", "0.2", "--iters", "40"])
    assert code == 0
    payload = _read_json(capsys)
    assert payload["splits"] == 4
    assert set(payload["results"]) == {"cd", "pool"}
    for stats in payload["results"].values():
        assert 0.0 <= stats["ooi"] <= 1.0


# every option of each subcommand: (flag, dest, default, choices, required,
# nargs, type), recorded before shared flags were defined once; --workers'
# default is read with CDBOOST_WORKERS unset
_OPTIONS = {
    "fit": [
        ("--config", "config", None, None, False, None, None),
        ("--data", "data", None, None, True, "+", None),
        ("--grid", "grid", None, None, False, None, None),
        ("--groups", "groups", None, None, True, None, None),
        ("--iters", "iters", 500, None, False, None, "int"),
        ("--lambda", "lam", "auto", None, False, None, None),
        ("--method", "method", "cd-sboost", None, False, None, None),
        ("--model", "model", "auto", ("auto", "lr", "aft"), False, None, None),
        ("--no-standardize", "no_standardize", False, None, False, 0, None),
        ("--nu", "nu", 0.1, None, False, None, "float"),
        ("--output", "output", None, None, False, None, None),
        ("--penalty-mode", "penalty_mode", "all_pairs", ("all_pairs", "ordered"), False, None,
         None),
        ("--workers", "workers", 1, None, False, None, "int"),
    ],
    "simulate": [
        ("--config", "config", None, None, False, None, None),
        ("--design", "design", None, ("S1", "S2", "S3", "S4"), False, None, None),
        ("--k", "k", None, None, False, None, "int"),
        ("--model", "model", "lr", ("lr", "aft"), False, None, None),
        ("--n", "n", None, None, False, None, "int"),
        ("--outdir", "outdir", None, None, True, None, None),
        ("--p", "p", None, None, False, None, "int"),
        ("--preset", "preset", "standard",
         ("standard", "reduced", "small-example", "table2"), False, None, None),
        ("--replicate", "replicate", 0, None, False, None, "int"),
        ("--rho", "rho", "0.8,0.2,0", None, False, None, None),
        ("--scheme", "scheme", None, ("random", "fixed"), False, None, None),
        ("--seed", "seed", None, None, True, None, "int"),
        ("--sigma2", "sigma2", None, None, False, None, "float"),
    ],
    "benchmark": [
        ("--config", "config", None, None, False, None, None),
        ("--design", "design", None, ("S1", "S2", "S3", "S4"), False, None, None),
        ("--iters", "iters", 500, None, False, None, "int"),
        ("--k", "k", None, None, False, None, "int"),
        ("--lambda", "lam", "auto", None, False, None, None),
        ("--methods", "methods", "cd,int,sep,pool", None, False, None, None),
        ("--model", "model", "lr", ("lr", "aft"), False, None, None),
        ("--n", "n", None, None, False, None, "int"),
        ("--no-verify", "no_verify", False, None, False, 0, None),
        ("--nu", "nu", 0.1, None, False, None, "float"),
        ("--output", "output", None, None, False, None, None),
        ("--p", "p", None, None, False, None, "int"),
        ("--penalty-mode", "penalty_mode", "all_pairs", ("all_pairs", "ordered"), False, None,
         None),
        ("--preset", "preset", "standard", ("standard", "reduced", "table2"), False, None, None),
        ("--replicates", "replicates", 20, None, False, None, "int"),
        ("--rho", "rho", "0.8,0.2,0", None, False, None, None),
        ("--scheme", "scheme", None, ("random", "fixed"), False, None, None),
        ("--seed", "seed", None, None, True, None, "int"),
        ("--sigma2", "sigma2", None, None, False, None, "float"),
        ("--table", "table", None, None, False, None, None),
        ("--workers", "workers", 1, None, False, None, "int"),
    ],
    "stability": [
        ("--config", "config", None, None, False, None, None),
        ("--data", "data", None, None, True, "+", None),
        ("--groups", "groups", None, None, True, None, None),
        ("--iters", "iters", 500, None, False, None, "int"),
        ("--lambda", "lam", "auto", None, False, None, None),
        ("--methods", "methods", "cd", None, False, None, None),
        ("--model", "model", "auto", ("auto", "lr", "aft"), False, None, None),
        ("--no-standardize", "no_standardize", False, None, False, 0, None),
        ("--nu", "nu", 0.1, None, False, None, "float"),
        ("--output", "output", None, None, False, None, None),
        ("--penalty-mode", "penalty_mode", "all_pairs", ("all_pairs", "ordered"), False, None,
         None),
        ("--seed", "seed", 0, None, False, None, "int"),
        ("--splits", "splits", 100, None, False, None, "int"),
        ("--workers", "workers", 1, None, False, None, "int"),
    ],
}


def test_subcommand_options_unchanged(monkeypatch):
    monkeypatch.delenv("CDBOOST_WORKERS", raising=False)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(
            (" ".join(a.option_strings), a.dest, a.default,
             a.choices and tuple(a.choices), a.required, a.nargs, a.type and a.type.__name__)
            for a in parser._actions if a.dest != "help"
        )
        for name, parser in sub.choices.items()
    }
    assert got == _OPTIONS


def test_workers_env_default(monkeypatch):
    from cdboost.cli import build_parser

    monkeypatch.setenv("CDBOOST_WORKERS", "3")
    args = build_parser().parse_args(
        ["benchmark", "--seed", "1", "--replicates", "1"])
    assert args.workers == 3
    monkeypatch.setenv("CDBOOST_WORKERS", "banana")
    args = build_parser().parse_args(
        ["benchmark", "--seed", "1", "--replicates", "1"])
    assert args.workers == 1


@pytest.mark.parametrize("flags, key, want", [
    (["--iter", "5"], "iters", 5),
    (["--iter=5"], "iters", 5),
    (["--lamb", "2"], "lam", "2"),
    (["--lamb=2"], "lam", "2"),
    (["--no-v"], "no_verify", True),
])
def test_abbreviated_flag_beats_config(tmp_path, flags, key, want):
    """A unique prefix of a flag, with or without '=', counts as given, so
    the config file does not override it."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text("iters = 37\nlambda = 3\nno_verify = no\n")
    argv = ["benchmark", "--seed", "1", "--config", str(cfg), *flags]
    args = build_parser().parse_args(argv)
    _merge_config(args, argv, args.subparser)
    assert getattr(args, key) == want
