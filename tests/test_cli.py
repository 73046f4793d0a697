import csv
import io
import json
import struct

import numpy as np

from fbsp.cli import main, seed_derivation
from fbsp.graph import load


def test_seed_derivation_distinct_and_stable():
    assert seed_derivation(7, 0) != seed_derivation(7, 1)
    assert seed_derivation(7, 0) == seed_derivation(7, 0)
    seeds = {seed_derivation(7, t) for t in range(1000)}
    assert len(seeds) == 1000


def test_gen_writes_loadable_graph(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "--n", "12", "--seed", "3", "--out", str(out)]) == 0
    g = load(out)
    assert g.n == 12
    assert g.num_edges == 12 * 11


def test_sssp_reports(tmp_path):
    j = tmp_path / "r.json"
    c = tmp_path / "r.csv"
    rc = main(["sssp", "--n", "60", "--dist", "exp", "--algo", "fb",
               "--seed", "7", "--trials", "5",
               "--json", str(j), "--csv", str(c)])
    assert rc == 0
    payload = json.loads(j.read_text())
    assert len(payload["rows"]) == 5
    assert payload["aggregate"]["forward_scans"]["mean"] > 0
    lines = c.read_text().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[0].startswith("trial,seed,algo,n,model")


def test_sssp_csv_is_reproducible(tmp_path):
    args = ["sssp", "--n", "40", "--algo", "fb", "--seed", "11",
            "--trials", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sssp_from_graph_file(tmp_path):
    gfile = tmp_path / "g.txt"
    main(["gen", "--n", "15", "--seed", "5", "--out", str(gfile)])
    j = tmp_path / "r.json"
    rc = main(["sssp", "--n", "15", "--graph", str(gfile), "--algo",
               "dijkstra", "--trials", "1", "--json", str(j)])
    assert rc == 0
    payload = json.loads(j.read_text())
    assert payload["rows"][0]["algo"] == "dijkstra"


def test_verify_accepts_own_tree(tmp_path):
    for mode in ("full", "forward", "fb"):
        assert main(["verify", "--n", "50", "--seed", "2", "--mode", mode,
                     "--algo", "fb"]) == 0


def test_apsp_matrix_dump(tmp_path):
    dump = tmp_path / "m.bin"
    j = tmp_path / "a.json"
    rc = main(["apsp", "--n", "18", "--seed", "4",
               "--dump", str(dump), "--json", str(j)])
    assert rc == 0
    blob = dump.read_bytes()
    assert blob[:8] == b"FBSPAPSP"
    (n,) = struct.unpack("<Q", blob[8:16])
    assert n == 18
    mat = np.frombuffer(blob[16:], dtype=np.float64).reshape(18, 18)
    assert np.all(np.diag(mat) == 0.0)
    payload = json.loads(j.read_text())
    assert payload["total_scans"] > 0


def test_sample_outputs(tmp_path):
    j = tmp_path / "s.json"
    c = tmp_path / "s.csv"
    rc = main(["sample", "--n", "80", "--trials", "20", "--seed", "3",
               "--tail-threshold", "0", "--json", str(j), "--csv", str(c)])
    assert rc == 0
    payload = json.loads(j.read_text())
    assert payload["tail"]["fraction"] == 1.0
    assert payload["aggregate"]["lambda_in"]["mean"] > 0
    lines = c.read_text().splitlines()
    assert lines[0] == ("trial,seed,n,directed,out_spt,in_spt,out_non_spt,"
                        "in_non_spt,total,lambda_in,lambda_out")
    assert len(lines) == 21


def test_bench_scan_scaling(tmp_path, capsys):
    j = tmp_path / "b.json"
    rc = main(["bench", "scan-scaling", "--algo", "fb", "--n", "50,100",
               "--trials", "2", "--seed", "1", "--json", str(j)])
    assert rc == 0
    table = json.loads(j.read_text())["table"]
    assert [row["n"] for row in table] == [50, 100]
    captured = capsys.readouterr().out
    assert "scans/n" in captured


def test_bench_verify_compare(tmp_path):
    j = tmp_path / "v.json"
    rc = main(["bench", "verify-compare", "--n", "128", "--trials", "3",
               "--seed", "5", "--json", str(j)])
    assert rc == 0
    payload = json.loads(j.read_text())
    summary = payload["summary"]
    assert summary["forward_only_per_nlogn"] > 0.5
    assert summary["fb_per_n"] < 10
    for row in payload["rows"]:  # wall times per verifier, JSON only
        assert row["forward_only_wall_ns"] > 0 and row["fb_wall_ns"] > 0


def test_invalid_usage_exits_1():
    assert main(["sssp", "--n", "10", "--dist", "weibull"]) == 1  # no shape
    assert main(["nonsense"]) == 1
    assert main(["sssp"]) == 1  # missing --n
    assert main(["gen", "--n", "0", "--out", "/tmp/x.txt"]) == 1
    assert main(["sssp", "--n", "10", "--trials", "0"]) == 1
    assert main(["sample", "--n", "10", "--trials", "-3"]) == 1
    assert main(["bench", "scan-scaling", "--n", "10", "--trials", "0"]) == 1
    assert main(["bench", "verify-compare", "--n", "10", "--trials", "-3"]) == 1
    assert main(["bench", "verify-compare", "--n", "1"]) == 1  # n ln n = 0


def test_non_integer_count_names_no_private_helper(capsys):
    assert main(["sssp", "--n", "10", "--trials", "abc"]) == 1
    err = capsys.readouterr().err
    assert "must be an integer, got 'abc'" in err
    assert "_positive_int" not in err


def test_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FBSP_OUT_DIR", str(tmp_path))
    assert main(["gen", "--n", "8", "--seed", "1", "--out", "sub.txt"]) == 0
    assert (tmp_path / "sub.txt").exists()
    # the path written, with no temp file left beside it
    assert capsys.readouterr().out.endswith(f" to {tmp_path / 'sub.txt'}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sub.txt"]


def test_end_to_end_determinism(tmp_path):
    # full experiment rerun: identical CSV bytes, wall times only in JSON
    args = ["sample", "--n", "60", "--trials", "10", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_bucket_parameters_exit_1(capsys):
    # every algorithm runs on its one fixed queue; queue flags are unknown
    for cmd in (["sssp", "--n", "50"], ["verify", "--n", "50"],
                ["apsp", "--n", "10"],
                ["bench", "scan-scaling", "--n", "20", "--trials", "1"]):
        for flags in (["--pq", "bucket"], ["--pq", "binheap"],
                      ["--bucket-b", "5"], ["--bucket-w", "0.1"]):
            capsys.readouterr()
            assert main(cmd + flags) == 1
            assert "unrecognized arguments" in capsys.readouterr().err


def test_apsp_rejects_negative_threads(capsys):
    # apsp runs its sources in one loop; there is no thread count to set
    for threads in ("-3", "0", "2"):
        capsys.readouterr()
        assert main(["apsp", "--n", "20", "--threads", threads]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_without_n_or_graph_exits_1(capsys):
    assert main(["verify", "--seed", "1"]) == 1
    assert "either --n or --graph is required" in capsys.readouterr().err


def test_pq_column_names_the_queue_each_algorithm_runs(tmp_path):
    for algo, queue in (("fb", "bucket"), ("spira", "binheap"),
                        ("dijkstra", "heapq")):
        c, j = tmp_path / f"{algo}.csv", tmp_path / f"{algo}.json"
        assert main(["sssp", "--n", "12", "--algo", algo, "--trials", "2",
                     "--csv", str(c), "--json", str(j)]) == 0
        rows = list(csv.DictReader(io.StringIO(c.read_text())))
        assert [row["pq"] for row in rows] == [queue, queue]
        payload = json.loads(j.read_text())
        assert payload["config"]["pq"] == queue
        assert [row["pq"] for row in payload["rows"]] == [queue, queue]


GOLDEN_HEADER = ("trial,seed,algo,n,model,shape,directed,pq,source,"
                 "forward_scans,backward_scans,p_inserts,p_extracts,"
                 "q_inserts,q_extracts,requests,urgent_requests,median,"
                 "size_at_median\n")

GOLDEN_CSV = {
    "fb": GOLDEN_HEADER
    + "0,7191089600892374487,fb,30,exp,,1,bucket,0,65,41,61,52,41,35,26,6,"
      "0.09726578957465903,15\n"
    + "1,309689372594955804,fb,30,exp,,1,bucket,0,77,42,74,62,42,41,27,5,"
      "0.14724282404448003,15\n",
    # the counters as before; only the pq cell changed, from bucket
    "spira": GOLDEN_HEADER
    + "0,7191089600892374487,spira,30,exp,,1,binheap,0,102,0,102,72,0,0,0,0,"
      ",0\n"
    + "1,309689372594955804,spira,30,exp,,1,binheap,0,110,0,110,80,0,0,0,0,"
      ",0\n",
}


def test_sssp_csv_matches_golden_bytes(tmp_path):
    for algo, golden in GOLDEN_CSV.items():
        c = tmp_path / f"{algo}.csv"
        assert main(["sssp", "--n", "30", "--seed", "7", "--trials", "2",
                     "--algo", algo, "--csv", str(c)]) == 0
        assert c.read_bytes() == golden.encode("ascii"), algo


# CSV bytes each command wrote before its flags went through one helper
GOLDEN_OTHER_CSV = {
    "sample": (["sample", "--n", "40", "--trials", "3", "--seed", "5"],
               "trial,seed,n,directed,out_spt,in_spt,out_non_spt,in_non_spt,"
               "total,lambda_in,lambda_out\n"
               "0,7134611160154358618,40,1,25,14,18,31,88,51.29908050478619,"
               "39.711811146512986\n"
               "1,13877614986023876344,40,1,29,10,30,26,95,51.43786389582251,"
               "62.93833218743942\n"
               "2,4292726422858613063,40,1,27,12,24,47,110,74.43841447877408,"
               "50.77126988095504\n"),
    "scan-scaling fb": (
        ["bench", "scan-scaling", "--algo", "fb", "--n", "20,30",
         "--trials", "2", "--seed", "3"],
        "n,trial,seed,forward_scans,backward_scans,total_scans\n"
        "20,0,2092789425003139053,47,30,77\n"
        "20,1,12918135221727111561,43,28,71\n"
        "30,0,2092789425003139053,74,33,107\n"
        "30,1,12918135221727111561,89,42,131\n"),
    "scan-scaling spira": (
        ["bench", "scan-scaling", "--algo", "spira", "--n", "20,30",
         "--trials", "2", "--seed", "3"],
        "n,trial,seed,forward_scans,backward_scans,total_scans\n"
        "20,0,2092789425003139053,87,0,87\n"
        "20,1,12918135221727111561,83,0,83\n"
        "30,0,2092789425003139053,188,0,188\n"
        "30,1,12918135221727111561,201,0,201\n"),
    "verify-compare": (
        ["bench", "verify-compare", "--n", "30", "--trials", "2",
         "--seed", "5"],
        "trial,seed,forward_only_examined,fb_examined\n"
        "0,7134611160154358618,131,90\n"
        "1,13877614986023876344,163,90\n"),
    "sssp weibull undirected": (
        ["sssp", "--n", "20", "--dist", "weibull", "--shape", "2",
         "--undirected", "--seed", "4", "--trials", "2"],
        GOLDEN_HEADER
        + "0,7958955049054603978,fb,20,weibull,2.0,0,bucket,0,46,28,44,44,"
          "28,28,18,3,0.01000769759378993,10\n"
        + "1,16462000697783136304,fb,20,weibull,2.0,0,bucket,0,45,25,41,40,"
          "25,23,15,4,0.011192144968503034,10\n"),
}


def test_other_csvs_match_golden_bytes(tmp_path):
    for name, (argv, golden) in GOLDEN_OTHER_CSV.items():
        c = tmp_path / "out.csv"
        assert main(argv + ["--csv", str(c)]) == 0, name
        assert c.read_bytes() == golden.encode("ascii"), name


def _undirected_file(tmp_path):
    gfile = tmp_path / "u.txt"
    assert main(["gen", "--n", "12", "--dist", "uniform", "--undirected",
                 "--out", str(gfile)]) == 0
    return gfile


def test_graph_run_echoes_the_file(tmp_path):
    gfile = _undirected_file(tmp_path)
    c, j = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["sssp", "--graph", str(gfile), "--trials", "2",
                 "--csv", str(c), "--json", str(j)]) == 0
    rows = list(csv.DictReader(io.StringIO(c.read_text())))
    for row in rows:
        assert (row["n"], row["model"], row["shape"], row["directed"]) == \
            ("12", "", "", "0")
    config = json.loads(j.read_text())["config"]
    assert (config["n"], config["dist"], config["shape"],
            config["directed"]) == (12, None, None, False)
    assert main(["verify", "--graph", str(gfile), "--json", str(j)]) == 0
    config = json.loads(j.read_text())["config"]
    assert (config["n"], config["dist"], config["directed"]) == \
        (12, None, False)


def test_graph_that_is_no_graph_file_exits_1(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    assert main(["gen", "--n", "8", "--out", str(gfile)]) == 0
    archive = gfile.read_bytes()
    for data in (b"8 1\n0 1 0.5\n", archive[:len(archive) // 2]):
        gfile.write_bytes(data)  # the old text format, a truncated archive
        capsys.readouterr()
        assert main(["sssp", "--graph", str(gfile)]) == 1
        assert capsys.readouterr().err.startswith("error: not a graph file")


def test_graph_with_model_flags_or_other_n_exits_1(tmp_path, capsys):
    gfile = _undirected_file(tmp_path)
    for cmd in ("sssp", "verify"):
        for flags in (["--dist", "exp"], ["--dist", "weibull", "--shape", "3"],
                      ["--shape", "2"], ["--undirected"], ["--n", "999"]):
            capsys.readouterr()
            assert main([cmd, "--graph", str(gfile)] + flags) == 1, \
                (cmd, flags)
            assert "error:" in capsys.readouterr().err
        assert main([cmd, "--graph", str(gfile), "--n", "12"]) == 0


def test_every_config_echoes_n_model_and_direction(tmp_path):
    runs = {
        "sssp": ["sssp", "--n", "20"],
        "verify": ["verify", "--n", "20"],
        "apsp": ["apsp", "--n", "20"],
        "scan-scaling": ["bench", "scan-scaling", "--n", "20",
                         "--trials", "1"],
    }
    for name, argv in runs.items():
        j = tmp_path / f"{name}.json"
        assert main(argv + ["--dist", "weibull", "--shape", "2",
                            "--undirected", "--json", str(j)]) == 0, name
        config = json.loads(j.read_text())["config"]
        assert (config["dist"], config["shape"], config["directed"]) == \
            ("weibull", 2.0, False), name
        assert config["n"] in (20, [20]), name
    j = tmp_path / "vc.json"
    assert main(["bench", "verify-compare", "--n", "20", "--trials", "1",
                 "--undirected", "--json", str(j)]) == 0
    config = json.loads(j.read_text())["config"]
    assert (config["n"], config["dist"], config["directed"]) == \
        (20, "exp", False)


def test_gen_writes_trial_0_of_sssp(tmp_path):
    for extra in ([], ["--dist", "weibull", "--shape", "0.5", "--undirected"]):
        gfile = tmp_path / "g.txt"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--n", "25", "--seed", "13", "--out", str(gfile)]
                    + extra) == 0
        assert main(["sssp", "--graph", str(gfile), "--json", str(a)]) == 0
        assert main(["sssp", "--n", "25", "--seed", "13", "--trials", "1",
                     "--json", str(b)] + extra) == 0
        ra, rb = (json.loads(p.read_text())["rows"][0] for p in (a, b))
        # a --graph row echoes no model, and no seed made its graph
        for key in set(rb) - {"wall_time_ns", "seed", "model", "shape"}:
            assert ra[key] == rb[key], (extra, key)


def test_sample_rejects_model_flags(capsys):
    for flags in (["--dist", "weibull", "--shape", "3"], ["--dist", "uniform"],
                  ["--shape", "2"]):
        capsys.readouterr()
        assert main(["sample", "--n", "10"] + flags) == 1, flags
        assert "error:" in capsys.readouterr().err
    assert main(["sample", "--n", "10", "--dist", "exp"]) == 0


def test_graph_run_writes_empty_seed_cells(tmp_path):
    gfile = _undirected_file(tmp_path)
    c, j = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["sssp", "--graph", str(gfile), "--trials", "3",
                 "--csv", str(c), "--json", str(j)]) == 0
    rows = list(csv.DictReader(io.StringIO(c.read_text())))
    assert [row["seed"] for row in rows] == ["", "", ""]
    assert [row["seed"] for row in json.loads(j.read_text())["rows"]] == \
        [None, None, None]


def test_infinite_costs_exit_1(capsys):
    assert main(["sssp", "--n", "50", "--dist", "weibull",
                 "--shape", "400"]) == 1
    assert "overflows" in capsys.readouterr().err


def test_graph_too_large_for_memory_exits_1(capsys):
    # the row heads and the candidate table would need 74 GB: the build is
    # refused before it hashes a cost where that is more than the host's
    # memory, and by the allocator elsewhere
    assert main(["sssp", "--n", "10000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_sssp_json_says_whether_a_trial_built_the_whole_graph(tmp_path):
    # fb reads row prefixes only; dijkstra reads every row whole
    for algo, completed in (("fb", False), ("dijkstra", True)):
        j = tmp_path / f"{algo}.json"
        assert main(["sssp", "--n", "2000", "--algo", algo,
                     "--json", str(j)]) == 0
        rows = json.loads(j.read_text())["rows"]
        assert [row["graph_completed"] for row in rows] == [completed]


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "adir"
    target.mkdir()
    assert main(["gen", "--n", "5", "--out", str(target)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list(target.iterdir()) == []
