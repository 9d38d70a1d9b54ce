"""Golden output: the sha256 of every byte the CLI writes for the bundled
fixtures and of every file `wgm synth` writes. A kernel change that moves
any output byte fails here; a change meant to alter the output must update
these digests on purpose."""

import hashlib
import json
import random

import pytest

from wgm.cli import main

GRAPH = ["--nodes", "nodes.tsv", "--edges", "edges.tsv"]
EDITS = ["--edits", "edits.tsv", "--catmap", "catmap.tsv", "--catnames", "catnames.tsv"]
# multi-byte UTF-8 titles, `#` in a title, an empty title, non-main rows between main ones
TITLES = ["--nodes", "titles_nodes.tsv", "--edges", "titles_edges.tsv"]

GOLDEN = {
    "report": (["report", *GRAPH, *EDITS], "790ef6d01acf2873d7de6c2e3e61af431b518772c1e020ed189a31cbebbbce61"),
    "report-undirected": (
        ["report", "--undirected", *GRAPH, *EDITS],
        "a5bc7d3319bc0dd4e2668f22dab2a9d1cc1a9443de25655fa006075d3a49aafb",
    ),
    "cluster-csv": (["cluster", "--format", "csv", *GRAPH], "ed6e6fb8d641203613897f73d6e663a1bf8d2d0532e95a18bf200471e2cabec7"),
    "paths-csv": (["paths", "--format", "csv", *GRAPH], "80663992e35a2dab026c20d39af82de96c94aa6012e4d4807c09b6a4e12c15a2"),
    "paths-undirected-csv": (
        ["paths", "--undirected", "--format", "csv", *GRAPH],
        "76aaefc7ee01ced4598c548baed9be090107c74025d3e615bb46ef3ced20c696",
    ),
    "degrees": (["degrees", *GRAPH], "a38530ada0949f99115a467458764ffc784a3938d62e5a62cad1600aad54c563"),
    "degrees-csv": (["degrees", "--format", "csv", *GRAPH], "3d4204ebcac9f031b245be3ea51251dd77711a9af14b663b9b8ac40ec6136015"),
    "classify": (["classify", *GRAPH], "75811ac6cecc1611685fc9962adfd866f81a06b4e9b48766d8ad2c79713e7fc3"),
    "classify-csv": (["classify", "--format", "csv", *GRAPH], "6c28a5ce5eca4041b07ba9b77916b362af8e1394e7628291624e534cc4969c0b"),
    "fit": (["fit", *GRAPH], "0e16df71d8f7c33294bfce4f4727c40997cee4071ee408258fa83dc1151e210d"),
    "fit-csv": (["fit", "--format", "csv", *GRAPH], "a14dc0c96bb2e42517f4a2faa36c4d998fd95faf2c29a6cf7adc7431ff6b4d65"),
    "paths": (["paths", *GRAPH], "69d707e2750b94a4ded99d5937d64ab547e8601ddc776250ed23d5cf7042ddda"),
    "cluster": (["cluster", *GRAPH], "84a272d14afffb7e0980c8e6aa3e1e7eb5225ba7d76f17b8b69179f86df954b1"),
    "categories": (["categories", *EDITS], "e22b5f33180a3acc8422c61e0fc453b2405bb67e27c77e3c3b72c3820b164064"),
    "categories-csv": (
        ["categories", "--format", "csv", *EDITS],
        "f3251cec0540aa4d3768ed20a4c9f51bc58be1b289681508c52a12ad895d98a2",
    ),
    "entropy": (["entropy", *EDITS], "8ddb1632f7f04e883d62b3470f0c38fedd71d5f16bf6ec3e764b91817c93e604"),
    "entropy-csv": (["entropy", "--format", "csv", *EDITS], "12f9a23c106f5d92b211d2f6c50d0c8a9b327e2da805ec845b420f6c93ad18f5"),
    "entropy-active-csv": (
        ["entropy", "--format", "csv", "--histogram", "active", *EDITS],
        "eb807d97faf9b88d906bc4bb96a5c27ef943d3ebeef9727eb3fb1f82c81b5cfe",
    ),
    "categories-anonymous": (
        ["categories", "--include-anonymous", *EDITS],
        "abc0d6977f62c88f3ebf00c1b44faf36b8c9024799a3603bb98799259fcbd104",
    ),
    "categories-anonymous-csv": (
        ["categories", "--include-anonymous", "--format", "csv", *EDITS],
        "409a1b95c9429d156512f79f5f9bed92c663b619525c87099100d09d98b1e341",
    ),
    "categories-top-half": (
        ["categories", "--top-fraction", "0.5", *EDITS],
        "603c8926cbc10be0a0a6d6cee5508721592a32d9925e0e9d13cf103a0cc1c7a7",
    ),
    "entropy-max-share-csv": (
        ["entropy", "--format", "csv", "--histogram", "max-share", *EDITS],
        "c795bc37d061f58ce9a533f5bf95a3e5539cf61b245ca7183255a497f240166b",
    ),
    "entropy-bin-width": (
        ["entropy", "--bin-width", "0.1", *EDITS],
        "fbec78e98c07dec92a3f876635a180e31e7e832b34bce1483372eab6e2c9ad91",
    ),
    "paths-one-pair": (["paths", "--pairs", "1", *GRAPH], "3358c0fcaefaa3c5f72f4945a0c9c327ae21bdd657d24bc5fe7e1877b02acce2"),
    "paths-many-pairs": (
        ["paths", "--pairs", "200000", *GRAPH],
        "7fa3cf1d1d03bd313643dd7923aaa50a354357bf776a827fe0e057d9f2871133",
    ),
    "paths-undirected-many-pairs": (
        ["paths", "--undirected", "--pairs", "200000", "--seed", "3", *GRAPH],
        "d2d3bdc3b60b37154d73ff01813621f5f623624acb98b462777d2fd11e672f74",
    ),
    "report-anonymous": (
        ["report", "--include-anonymous", *GRAPH, *EDITS],
        "7da33171ac1fe4988a4ba08217c07055f5105a6072428f132167ba7e5bdeea29",
    ),
    "degrees-titles": (["degrees", *TITLES], "48195da13b9813eca683af78135d325e5f8051677aacad87356b0ad79d4350d5"),
    "degrees-titles-csv": (
        ["degrees", "--format", "csv", *TITLES],
        "109e83864909dad12aee7eaabaeadf84b5a298b40bacf18bc717b7bdd0f67ecc",
    ),
}

# `wgm synth` flags -> sha256 of each file it writes
SYNTH_NODES = "eb74917ba57e9c20303ceb09bd3af3159e3b0a72f920ab7146f3fa3080dc86b3"
SYNTH_CATEGORIES = {
    "catmap.tsv": "4e4fd2d165e52f6fdf966a888cb6cfc57f4b3c633cc86a901000d2466431dccd",
    "catnames.tsv": "2bc8e059f1020d877e8c645b1a995af50284c1db94e06a099e7c7a0e9d84222e",
}
SYNTH_GOLDEN = {
    "zipf-edits-1": (
        ["--kind", "zipf-edits", "--seed", "1"],
        {"edits.tsv": "7e42ffdd993eb7daf75c3da36fc014b657c7e07eaf1b187b1a32b56706115fb4", **SYNTH_CATEGORIES},
    ),
    "zipf-edits-7": (
        ["--kind", "zipf-edits", "--seed", "7"],
        {"edits.tsv": "dd2b188d72f690f54e51f91ab88cbf9ebb4d7a2c059d7c8665f28c2562129df0", **SYNTH_CATEGORIES},
    ),
    "zipf-edits-one-category": (
        ["--kind", "zipf-edits", "--seed", "3", "--categories", "1"],
        {
            "edits.tsv": "08b2d56f0f2d3dc9fb87ca3cc01da2ba7612d5958de5b11709acaa8843507115",
            "catmap.tsv": "4b14c7b5549e560a68e9c4daaae3fdb8a28fe32d0247050325e7c5a3b2b3271c",
            "catnames.tsv": "81604876e774ba4fc40d52232e8277737618e7b607ef42970d36a75e145db29b",
        },
    ),
    "zipf-edits-no-home-bias": (
        ["--kind", "zipf-edits", "--seed", "3", "--home-bias", "0", "--categories", "3"],
        {
            "edits.tsv": "2a7e4e7801bb31f99f13a5b48a0d61a103fa3335e177597cfd3a4f7778aa4366",
            "catmap.tsv": "7a62d8b6b45aa3d2c07ee5a339d1ad13107c7622e35de35ec84e24b831b52f6e",
            "catnames.tsv": "6ae3d8965af1670543d1d28395f46781f69ba7a796cfff27f5f4069106de1639",
        },
    ),
    "preferential-1": (
        ["--kind", "preferential", "--seed", "1"],
        {"edges.tsv": "ce48080742fae32f2813f768cc9a667fd497aa81e69e40a6b45abb5cc03835ef", "nodes.tsv": SYNTH_NODES},
    ),
    "preferential-7": (
        ["--kind", "preferential", "--seed", "7"],
        {"edges.tsv": "f2201183b64a3afab4cf09364064c7632af9a519d55ff602e58e49e4acd8b24d", "nodes.tsv": SYNTH_NODES},
    ),
    "uniform-1": (
        ["--kind", "uniform", "--seed", "1"],
        {"edges.tsv": "4d77137137b22c25707e8bcde61b48f61f00544f055ad3861ad16e60cbc5c74f", "nodes.tsv": SYNTH_NODES},
    ),
    "preferential-20000-m5": (
        ["--kind", "preferential", "--n", "20000", "--m", "5"],
        {
            "edges.tsv": "8908cf6f00c8fdafa835f7d1a7da28953c627a1cbe3dd9d78ada6794e952de7c",
            "nodes.tsv": "e46b3a647a9ff47fdade9ca9657a4c08c7c6398e58f88afb9fc6c7c94dc5419c",
        },
    ),
    "uniform-60-dense": (
        ["--kind", "uniform", "--n", "60", "--p", "0.9"],
        {
            "edges.tsv": "60f7deb320f00e50e036eb095c6c9e498a051303d854af66c0abe939a358b300",
            "nodes.tsv": "467bf1c3290b210350c79c85cd1f7ed645c8f94ffbf0ad8ac023ffa48b8e90af",
        },
    ),
    "uniform-7": (
        ["--kind", "uniform", "--seed", "7"],
        {"edges.tsv": "57ce87c236fa4cf5b3c70f2d845d1b808451c5eea628fdc4ad177f46071130b1", "nodes.tsv": SYNTH_NODES},
    ),
}


# these also run on copies of the fixtures with CRLF and with lone-CR line
# ends, and degrees-titles on one whose non-main namespaces are negative
ACROSS_LINE_ENDS = ("report", "report-undirected", "degrees-titles")
NEGATIVE_NAMESPACES = {b"\t1\n": b"\t-1\n", b"\t2\n": b"\t-2\n", b"\t10\n": b"\t-1\n"}


def fixture_copies(name, data_dir, tmp_path):
    """The fixture directory, then each copy of it that `name` also runs on."""
    yield data_dir
    edits = [("*.tsv", {b"\n": b"\r\n"}), ("*.tsv", {b"\n": b"\r"})] if name in ACROSS_LINE_ENDS else []
    edits += [("titles_nodes.tsv", NEGATIVE_NAMESPACES)] if name == "degrees-titles" else []
    for i, (pattern, replacements) in enumerate(edits):
        copy = tmp_path / f"copy{i}"
        copy.mkdir()
        for tsv in data_dir.glob("*.tsv"):
            data = tsv.read_bytes()
            for old, new in replacements.items() if tsv.match(pattern) else ():
                data = data.replace(old, new)
            (copy / tsv.name).write_bytes(data)
        yield copy


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_output_digest(name, data_dir, tmp_path):
    argv, digest = GOLDEN[name]
    for directory in fixture_copies(name, data_dir, tmp_path):
        out = tmp_path / "out"
        args = [str(directory / a) if a.endswith(".tsv") else a for a in argv]
        assert main([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, directory


@pytest.mark.parametrize("name", sorted(SYNTH_GOLDEN))
def test_synth_file_digests(name, tmp_path, capsys):
    flags, digests = SYNTH_GOLDEN[name]
    assert main(["synth", *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests


# `report` reads these files as sets of rows, so the order of their data rows
# leaves its bytes as they are. nodes.tsv is left out: the kept nodes are
# numbered in table order and the sampled sections draw nodes by number, so
# shuffling the node table changes the report.
ROW_ORDER_FREE = ("edges.tsv", "edits.tsv", "catmap.tsv", "catnames.tsv")


def shuffled_rows(data, seed):
    """`data` with its data lines in a seeded random order; comment and blank
    lines keep their places."""
    lines = data.split(b"\n")
    at = [i for i, line in enumerate(lines) if line and not line.startswith(b"#")]
    rows = [lines[i] for i in at]
    random.Random(seed).shuffle(rows)
    for i, row in zip(at, rows):
        lines[i] = row
    return b"\n".join(lines)


def main_output(argv, directory, out):
    """The bytes `main` writes for `argv` with its files read from `directory`."""
    assert main([*(str(directory / a) if a.endswith(".tsv") else a for a in argv), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", ROW_ORDER_FREE)
def test_report_ignores_row_order(name, data_dir, tmp_path):
    for tsv in data_dir.glob("*.tsv"):
        data = tsv.read_bytes()
        (tmp_path / tsv.name).write_bytes(shuffled_rows(data, seed=1) if tsv.name == name else data)
    assert (tmp_path / name).read_bytes() != (data_dir / name).read_bytes()
    argv, digest = GOLDEN["report"]
    assert hashlib.sha256(main_output(argv, tmp_path, tmp_path / "out")).hexdigest() == digest


def data_rows(data):
    """The fields of each data line of `data`, skipping comment and blank lines."""
    return [line.split("\t") for line in data.decode("utf-8").split("\n") if line and not line.startswith("#")]


def doubled_rows(data):
    """`data` with each data line written twice in a row; comment and blank
    lines once."""
    lines = data.split(b"\n")
    return b"\n".join(line for line in lines for _ in range(2 if line and not line.startswith(b"#") else 1))


@pytest.mark.parametrize("name", ["report", "report-undirected"])
def test_report_under_doubled_edge_rows(name, data_dir, tmp_path):
    """Each edge row twice: only the two counts of dropped rows move."""
    for tsv in data_dir.glob("*.tsv"):
        data = tsv.read_bytes()
        (tmp_path / tsv.name).write_bytes(doubled_rows(data) if tsv.name == "edges.tsv" else data)
    argv, _ = GOLDEN[name]
    base, doubled = (json.loads(main_output(argv, d, tmp_path / "out")) for d in (data_dir, tmp_path))
    main_ids = {row[0] for row in data_rows((data_dir / "nodes.tsv").read_bytes()) if row[2] == "0"}
    edges = data_rows((data_dir / "edges.tsv").read_bytes())
    non_loop = sum(s != t and {s, t} <= main_ids for s, t in edges)  # the rows left after the namespace filter
    assert doubled["graph"].pop("dropped_self_loops") == 2 * base["graph"].pop("dropped_self_loops")
    assert doubled["graph"].pop("dropped_duplicate_edges") == base["graph"].pop("dropped_duplicate_edges") + non_loop
    assert doubled == base
