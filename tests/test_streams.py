"""The counting recurrences as streams.

Every counting recurrence yields its values as they are made and holds only
the window it reads.  The digests below were taken from the list-holding
recurrences that the streams replaced, so each stream, and every output
that consumes one, must reproduce them byte for byte.
"""

import gc
import hashlib
import json
import tracemalloc
from decimal import getcontext
from pathlib import Path

import pytest

from freemagma import PathSpec, count_paths, counting_texts, parse_family
from freemagma.cli import main
from freemagma.motzkin_paths import _equation_counts
from freemagma.sequences import unlimited_int_digits
from freemagma.subgroupoids import _counts

HORIZON = 2000

# sha256 of the values 1..2000, one decimal text per line, without a final newline.
STREAM_DIGESTS = {
    "full": "e3ce499c7f9d73567a1d0b50a8d9cf4b7aecf85457f3f8340835457266295e84",
    "shifted:1": "ef16697f29278786dbadd10dd7cc84779a0801691116fd9cd7d05d349d7a2159",
    "shifted:(1+1)": "bc5a3642eeb0078e5de26a6a1122b7fed3638337060bba083ef448597c38a70d",
    "shifted:(1+(1+1))": "2c43eb8abbeb813ede0fdd9f937082b7e41747ae309707de027b20a704d7aec8",
    "finite:[(1+1),((1+1)+1),(1+(1+1))]": "a740c6b90e6058179738be0c251889014d398be8aaf0e9225e22e256b558e567",
    "longitudinal:[2,3]": "b25a0ad6cdfd1ebaa050d72e214e6aa6258226e521e901c1efa85445ac95a9ff",
    "longitudinal:[4,6]": "1dc192080a121c1648455569b7b3e42d2bec9453169f9c96c14e4aefd584892b",
}
# sha256 of the path counts of lengths 0..2000, the same way, by forbidden
# bigrams and colours: the three specs of the motzkin-paths check.
MOTZKIN_DIGESTS = {
    ((), ()): "7384ce592835207fa186828f44859b9f0d36e668c682b2e94da7f5fc9c9fbf62",
    (("FU", "FF"), ()): "521191986e91d30cefb6f10ad59b59f8bf3cfdde6f3c229f408bf699f8bf35cb",
    (("FU", "FF"), (("F", 2),)): "f3169872c7df69da286ffd8c33a36e1d4c2b5715b2217f4f07e62a325510a206",
}
# sha256 of the file each command writes with --out.
COUNT_DIGESTS = {  # by family and format, at --n 2000 (seq: at --n 500)
    ("full", "csv"): "b741ce6745852e43045aceeac0c22baa0cc60ed6bd5210823763b1ae277df64e",
    ("full", "json"): "eeccdafbf10153a4177d2a765eabbed538bf7a4ab9b524d0117c4b8e3c20c334",
    ("full", "plain"): "918d9928e158ebdd05760260f26168e38a77bf180b846f93a01e71b5a090948f",
    ("shifted:1", "csv"): "4863891ce5cf03d573a1d14893ffebd38750f5a99f07eff7f562bea2572cb07e",
    ("shifted:1", "json"): "b3fa372488bbef907b61e8ce31edc81dab72139b657fedb7a846b702aa62cfc5",
    ("shifted:1", "plain"): "6565d11dfac79d2458e560aab4b38b7b027700e4017f64d544759d2a8b907d3e",
    ("shifted:(1+1)", "csv"): "03fd9bf3b1dc842f949972ef42a60e1b683ae89b60d7aab56a934713f3c776d3",
    ("shifted:(1+1)", "json"): "f5462c69a6ee5d4cf57f6f3818bd1cedcaf24cd0d0d363d9078888e93b775d68",
    ("shifted:(1+1)", "plain"): "3606de63e9cdde59343053caf369bdb3bc6f076c5a9e95c350fcd2faddd287de",
    ("shifted:(1+(1+1))", "csv"): "7d1cdebf4338c0ae60fad097988999236379d8c21a44ecf1d6e1ada1ce31ebeb",
    ("shifted:(1+(1+1))", "json"): "54e9fc5e535a1f17128c68c8d18e5b915aa15cb35342c5ba976ad2600a42c67d",
    ("shifted:(1+(1+1))", "plain"): "b7e45155b0e6136c765a82a8d06ad392e461caa489617c0833af4bf3315abd57",
    ("finite:[(1+1),((1+1)+1),(1+(1+1))]", "csv"): "2d9ff0724f5be96a627f3999794cd29333f0d19b8769e014da3c95f3804983ff",
    ("finite:[(1+1),((1+1)+1),(1+(1+1))]", "json"): "20427fe84603f8bc26179fab64924628aaf6723e59f40b2cba4e9cfe88df7d82",
    ("finite:[(1+1),((1+1)+1),(1+(1+1))]", "plain"): "cd5d2fdc002a6bc94ec3035454ffaca1f9f49a2c1df859ebe9bdf70e2f4599b4",
    ("longitudinal:[2,3]", "csv"): "7d8969a4d219edf1a0a5370d7a4e3058646faea8ece5d19d7035ca1df5ce54e2",
    ("longitudinal:[2,3]", "json"): "e0510b0d473a568f032aed104023c5ebf61b33ec1328e93003c7cf077116b6d2",
    ("longitudinal:[2,3]", "plain"): "75c6fb57e076cce2c2476ed15138c04f5ad4ce7316a8c5d0fd5f3b8e96a32f2e",
    ("longitudinal:[4,6]", "csv"): "bf3cc8d94f2a490d83f2716ffa983902377dea3a93196bd485a07eb1aa2d51b6",
    ("longitudinal:[4,6]", "json"): "b33af3fc0a6be78315d4883738b6e894413654c42b1b9b416bc8b49ad6a3de58",
    ("longitudinal:[4,6]", "plain"): "b72e1fa0f30b98180610f1143209b2b7a5a105e2a3d858990b611638ba7d7974",
    ("seq:[0,1,1]", "csv"): "80604491331d707f1b449ddeb262249a6637993142546dccb5803c9c9d228853",
    ("seq:[0,1,1]", "json"): "865af4bf3dd40582a6e5e3b424d8c2855cd6ac453ee846ae667f76cf764f14f6",
    ("seq:[0,1,1]", "plain"): "39eaadb9a0b80726af9b116ab21d8f381cb31fe3737708764beec405e0b7a2cc",
}
LONGITUDINAL_DIGESTS = {  # by lengths and format, at --nmax 2000
    ("2,3", "json"): "a7cc8997201a31c39d51ef3d7ef93b4fb77492027b8835cceb3e0d9b0484dbf3",
    ("2,3", "plain"): "e325a2d3059afe83c8859d85d874ce3b1bdbac50b7e790c6f0e268a6a7bb9e0d",
    ("4,6", "json"): "a206057020c14fe69f6dfa51af0938b5862a883107f1886a512d978086dcf92e",
    ("4,6", "plain"): "5f7ff30afb04daa3f516e0734b83338efbfc0473cb23d7248b0f49a3e8cbc502",
}
MOTZKIN_COUNT_DIGESTS = {  # by spec arguments and format, at --length 2000
    ("", "json"): "bd8221b88dda88e82f624e2a74db7a10c901221854746dd49ff8e0010df7fdd8",
    ("", "plain"): "e7ffa5a27e4ab75c92b019cf4c55bf124aeda4273a0fec2d4ef0dfb2f60c538e",
    ("--forbid FU,FF", "json"): "fa090b80d4f4669920ed7def16259afe7cf5521116567e1510db2560de1cae55",
    ("--forbid FU,FF", "plain"): "5afdb583943960dcc250e6904e7656428213b090ebd399aea2190ea8aa11c67c",
    ("--forbid FU,FF --colors F=2", "json"): "5f36e2208bf09b061c864ef584594c720da030797a15ea44b7cdac49f9ddf1f2",
    ("--forbid FU,FF --colors F=2", "plain"): "e0e829d6c86ecec6f641eb9db237815dd92de7267875d9268a8a79851a675158",
}
# The three artifacts of density --m full --nmax 2000 --precision 8: the
# report without runtime_seconds and with the CSV paths cut to their names,
# dumped with indent 2, then the trace and the accelerated trace.
DENSITY_DIGESTS = {
    "shifted:1": (
        "722f33eef2a5d23462ba698c23ffce4b694c029bdab5f05bf66398656969891a",
        "47ad29e6fc0856802a98fb315b1b09aecb7e45e59d4af9d478a5850885b1eeb5",
        "e59c647b1ba592d5509dccfbd1d60a5fa6bb0567be6c5b0de0c3a822707ed5a7",
    ),
    "shifted:(1+1)": (
        "6a1ab9e26e75882a2bd998352cf840b7b508fddf86f0195b98bd06783f7501e2",
        "09f4f83ff12ab3fd67f4921eaee82212116ed9257b7967f7c0a0e53a38ed21d5",
        "cf8d2874ea446369038e4ddfb519ced314ead41765c8631290b538172214bbe7",
    ),
    "shifted:(1+(1+1))": (
        "7745a248fe4a7ab6f9bfdbf7fed36ec669a2def13e7062423f88a008dec15e85",
        "dc3d84f41c83ae8869968a052439a1b0fe00e46efda47476b8f6788ba35050ac",
        "c0cb8ded12f06671c8bd7cbca1fbc84a7ff5d7d4f8b2f6bc607eba7d65826437",
    ),
    "finite:[(1+1),((1+1)+1),(1+(1+1))]": (
        "013e40389d41a302fccedf6a1a4b54d15a86a081f12785c8dfa04205c0544720",
        "b515806b267521a3ea54b927aa089728c4e870ace92229fe086c8ef28977c2e8",
        "52a633cfd116ec6d5e93d75e009e9ef95e39a854f630d46c95e8198065c77bc1",
    ),
}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def joined(values) -> str:
    with unlimited_int_digits():
        return "\n".join(map(str, values))


class TestStreams:
    @pytest.mark.parametrize("spec", STREAM_DIGESTS)
    def test_family_stream_pinned(self, spec):
        family = parse_family(spec)
        values = list(_counts(family, HORIZON, 1))
        assert len(values) == HORIZON
        assert sha256(joined(values)) == STREAM_DIGESTS[spec]
        # The printed route, run in base 10, gives the same texts.
        assert sha256("\n".join(counting_texts(family, HORIZON))) == STREAM_DIGESTS[spec]
        # A shorter horizon ends the same stream earlier.
        for n in (1, 2, 3, 4, 5, 6, 50):
            assert list(_counts(family, n, 1)) == values[:n], n

    @pytest.mark.parametrize("forbid, colors", MOTZKIN_DIGESTS)
    def test_motzkin_stream_pinned(self, forbid, colors):
        spec = PathSpec(HORIZON, forbid, colors)
        values = list(_equation_counts(spec))
        assert len(values) == HORIZON + 1
        assert sha256(joined(values)) == MOTZKIN_DIGESTS[forbid, colors]
        assert count_paths(spec) == values[-1]
        assert count_paths(PathSpec(50, forbid, colors)) == values[50]

    def test_reader_keeps_its_decimal_context(self):
        # The printed route makes each value under its exact context, which
        # the code reading the texts never sees.
        mine = getcontext()
        texts = counting_texts(parse_family("shifted:1"), 30)
        for _ in texts:
            assert getcontext() is mine and mine.prec == 28

    def test_printed_stream_holds_a_window(self):
        # The list form held all 5000 values, about 2500 times the last
        # text at n=5000; the stream holds the few values its recurrence
        # reads (measured on Python 3.11: 10 times the last text for
        # shifted:1 and the finite family, 4 to 5 times for full, which
        # reads only its generators, and for the longitudinal families,
        # which read one Catalan value and a semigroup table of 2 entries).
        for spec, digits in (
            ("shifted:1", 3004),
            ("full", 3004),
            ("finite:[(1+1),((1+1)+1),(1+(1+1))]", 2110),
            ("longitudinal:[2,3]", 3004),
            ("longitudinal:[4,6]", 3004),
        ):
            family = parse_family(spec)
            gc.collect()
            tracemalloc.start()
            try:
                last = ""
                for last in counting_texts(family, 5000):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(last) == digits, spec
            assert peak < 20 * len(last), spec


def run_to_file(tmp_path: Path, *argv: str) -> str:
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return sha256(out.read_bytes())


class TestOutputsPinned:
    @pytest.mark.parametrize("family, fmt", COUNT_DIGESTS)
    def test_count(self, tmp_path, family, fmt):
        n = "500" if family.startswith("seq:") else str(HORIZON)
        digest = run_to_file(tmp_path, "count", "--family", family, "--n", n, "--format", fmt)
        assert digest == COUNT_DIGESTS[family, fmt]

    @pytest.mark.parametrize("lengths, fmt", LONGITUDINAL_DIGESTS)
    def test_longitudinal(self, tmp_path, lengths, fmt):
        argv = ["longitudinal", "--lengths", lengths, "--nmax", str(HORIZON), "--format", fmt]
        assert run_to_file(tmp_path, *argv) == LONGITUDINAL_DIGESTS[lengths, fmt]

    @pytest.mark.parametrize("spec, fmt", MOTZKIN_COUNT_DIGESTS)
    def test_motzkin(self, tmp_path, spec, fmt):
        argv = ["motzkin", "--length", str(HORIZON), *spec.split(), "--format", fmt]
        assert run_to_file(tmp_path, *argv) == MOTZKIN_COUNT_DIGESTS[spec, fmt]

    @pytest.mark.parametrize("family", DENSITY_DIGESTS)
    def test_density_artifacts(self, tmp_path, capsys, family):
        out = tmp_path / "density"
        argv = ["density", "--n", family, "--m", "full", "--nmax", str(HORIZON), "--precision", "8"]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "density_report.json").read_text())
        del report["runtime_seconds"]
        for key in ("trace_csv_path", "accelerated_csv_path"):
            report[key] = Path(report[key]).name
        digests = (
            sha256(json.dumps(report, indent=2)),
            sha256((out / "density_trace.csv").read_bytes()),
            sha256((out / "density_accelerated.csv").read_bytes()),
        )
        assert digests == DENSITY_DIGESTS[family]
