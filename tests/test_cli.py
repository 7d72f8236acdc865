from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    EquivalenceWitness,
    Olp,
    OlpPair,
    classification_rule,
    from_sets,
    full_classification,
    lift,
    units,
)
from cwmat.cli import main
from cwmat.rows import apply_transform
from golden import (
    BASE_ORDER_CASES,
    BASE_SEARCH_COUNTS,
    KNOWN_CW_7_4,
    KNOWN_CW_31_16,
    W1_31_N,
    W1_31_P,
    W1_63_N,
    W1_63_P,
    W2_31_N,
    W2_31_P,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_accepts_weighing_row(capsys):
    code, out, err = run(capsys, "verify", KNOWN_CW_7_4)
    assert code == 0
    assert "weight: 4" in out
    assert err == ""


def test_verify_rejects_non_weighing_row(capsys):
    code, out, _ = run(capsys, "verify", "++00000")
    assert code == 1
    assert "not a weighing row" in out


def test_verify_bad_characters_usage_error(capsys):
    code, out, err = run(capsys, "verify", "+0x")
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_verify_leading_dash_row(capsys):
    # a row starting with '-' must not be parsed as an option
    code, out, _ = run(capsys, "verify", "-++0+00")
    assert code == 0
    assert "weight: 4" in out
    code, _, _ = run(capsys, "verify", "- + + 0 + 0 0")
    assert code == 0


def test_verify_single_entry(capsys):
    code, out, _ = run(capsys, "verify", "+0")
    assert code == 0
    assert "weight: 1" in out


def test_verify_order_one_reports_identity_multiplier(capsys):
    code, out, _ = run(capsys, "verify", "0")
    assert code == 0
    assert "multipliers: t=1 s=0" in out
    code, out, _ = run(capsys, "verify", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["multipliers"] == [[1, 0]]


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", KNOWN_CW_31_16, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n",
        "weight",
        "row",
        "P",
        "N",
        "olpP",
        "olpN",
        "multipliers",
        "cwEquation",
    ]
    assert payload["n"] == 31
    assert payload["weight"] == 16
    assert payload["olpP"] == [[5, 2]]
    assert payload["olpN"] == [[1, 1], [5, 1]]
    assert [2, 0] in payload["multipliers"]
    assert payload["cwEquation"] is True
    # row string round-trips through verify again
    code2, out2, _ = run(capsys, "verify", payload["row"], "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["row"] == payload["row"]


def test_verify_text_and_json_agree(capsys):
    _, out_json, _ = run(capsys, "verify", KNOWN_CW_7_4, "--format", "json")
    payload = json.loads(out_json)
    _, out_text, _ = run(capsys, "verify", KNOWN_CW_7_4)
    assert f"P: {' '.join(map(str, payload['P']))}" in out_text
    assert f"N: {' '.join(map(str, payload['N']))}" in out_text


def test_prune_summary_counting(capsys):
    code, out, _ = run(capsys, "prune", "16")
    assert code == 0
    assert out.rstrip().endswith("41 -> 11 (existence) -> 3 (counting)")


def test_prune_summary_existence_level(capsys):
    code, out, _ = run(capsys, "prune", "16", "--level", "existence")
    assert code == 0
    assert out.rstrip().endswith("41 -> 11 (existence)")
    code, out, _ = run(capsys, "prune", "36", "--level", "existence")
    assert code == 0
    assert out.splitlines()[-1] == "3840 -> 542 (existence)"


def test_prune_json_lists_every_pair(capsys):
    code, out, _ = run(capsys, "prune", "16", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 41
    assert payload["summary"] == {
        "pairs": 41,
        "existenceSurvivors": 11,
        "countingSurvivors": 3,
    }
    first = payload["pairs"][0]
    assert first["index"] == 1
    assert first["verdict"] == "rejected"
    assert first["witnesses"][0] == {
        "kind": "existence",
        "k": 5,
        "l": 2,
        "lengths": [10],
    }


def test_prune_rejects_non_square_weight(capsys):
    code, _, err = run(capsys, "prune", "15")
    assert code == 2
    assert "perfect square" in err


def test_prune_rejects_negative_weight(capsys):
    code, out, err = run(capsys, "prune", "-4")
    assert code == 2
    assert "weight -4" in err
    assert "nonnegative perfect square" in err
    assert out == ""
    code, out, _ = run(capsys, "prune", "0")
    assert code == 0
    assert out.rstrip().endswith("1 -> 1 (existence) -> 1 (counting)")


def test_prune_wider_weights(capsys):
    # Regression references from the seed commit, not independent results.
    code, out, _ = run(capsys, "prune", "25")
    assert code == 0
    assert out.rstrip().endswith("360 -> 72 (existence) -> 13 (counting)")
    code, out, _ = run(capsys, "prune", "36", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 3840
    assert payload["summary"] == {
        "pairs": 3840,
        "existenceSurvivors": 542,
        "countingSurvivors": 70,
    }


# sha256 of the stdout of these commands at commit 4322943, the parent
# of the bitmask existence test: a regression reference for every pair,
# verdict and witness text (parent output), not an independent result.
# The --multiplier 3 entry is the output once difference length 1 became
# a candidate for equal orbit lengths at t != 2: against the old output,
# 79 verdicts turn accepted and 2 rejected (two fixed points in N force
# differences of length 1 that no cross difference can match).
PARENT_PRUNE_JSON_SHA256 = {
    ("prune", "36", "--format", "json"):
        "aa96f5d27ed4a082643b18cca89fb97672aa3a7ec16710957285b0fa55023c68",
    ("prune", "25", "--multiplier", "3", "--format", "json"):
        "7800339889b5425d6077c48cff4bc6d7fae67e855f59bf93a7d0aa505eca70f8",
}


@pytest.mark.parametrize("argv", sorted(PARENT_PRUNE_JSON_SHA256))
def test_prune_json_matches_parent_output(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PARENT_PRUNE_JSON_SHA256[argv]


# sha256 of the stdout of these commands at commit 7462058, the parent of
# canonicalizing once per class in the search: solution order, class
# order and member order are regression references, not independent results.
PARENT_SEARCH_JSON_SHA256 = {
    ("search", "63", "16", "1^1 3^1 6^1", "6^1", "--format", "json"):
        "163df212ce8c11702eca81af3e1d29e2f200e4b186584cb2ab14550264e8300f",
    ("search", "315", "16", "1^1 3^1 6^1", "6^1", "--format", "json"):
        "650ade14e22943a775ec0122efcc2716d463403656eb48ce405c903f79c2f1c0",
    ("classify", "16", "--max-n", "341", "--format", "json"):
        "d2555851ead59514190eb0420a4615824a56c80cd64965d14756e8e6b4572bdd",
    # at commit b103cb3, the parent of deriving the search's solutions
    # from one assignment per unit class
    ("search", "31", "16", "5^2", "1^1 5^1", "--format", "json"):
        "faf0f70169d1deef31cdd23a9cdbf0f0b5dcc442e7cc782a08d792dea7b08f38",
    ("search", "13", "9", "3^2", "3^1", "--multiplier", "3", "--format", "json"):
        "48d659d0f8074089f571bb9cedf6a2ba0d96e0217bfbf07eb61177b534d5caae",
    ("search", "26", "9", "3^2", "3^1", "--multiplier", "3", "--format", "json"):
        "ffe65bf8367b1d76287751447d2b49d6030b339e534ffb13de5146a9b45851f9",
}


# sha256 of the stdout of these commands at commit 2333d9b, the parent of
# deriving the rule's terms in search.classification_rule and rendering
# each distinct olp and witness of cwmat prune's text once: regression
# references for the rule's searches, terms and text and for the prune
# lines (parent output), not independent results.
PARENT_RULE_PRUNE_SHA256 = {
    ("rule", "16", "--format", "json"):
        "e7745cce949d693ac066adcef9634c350d4007abf50e75b63c3cb490d7c5ac2a",
    ("rule", "16"):
        "bbcb3dff97711a02eb4aee58fabb78c3e92d915aa5ea473916b27609ad59e488",
    ("rule", "4", "--format", "json"):
        "0c88c73dcd15bc8d2bdfc5fab11265c0c6a3566a6a0828f4058cbb704495c3c1",
    ("prune", "36"):
        "e74dd56bd5abee8b8a20e87c9abd4331da3e92942760cf2215d5376ae2df254a",
}


@pytest.mark.parametrize("argv", sorted(PARENT_SEARCH_JSON_SHA256))
def test_search_and_classify_json_match_parent_output(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PARENT_SEARCH_JSON_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(PARENT_RULE_PRUNE_SHA256))
def test_rule_and_prune_match_parent_output(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PARENT_RULE_PRUNE_SHA256[argv]


# sha256 of the stdout of `verify <row> --format json` at commit b96c218,
# the parent of caching a row's support and sort key, for each class
# representative of full_classification(16, n, cross_check=False), in
# class order: a regression reference for the payload, the multiplier
# list included (parent output), not an independent result.
PARENT_VERIFY_JSON_SHA256 = {
    651: (
        "3ac278566d4f6975e13ef99596f25e2d7a044fd800fa8180ec0fe62a55bcabb9",
        "9acb56b020515fc30b673212c177ac68d5214c86f2547681b7a0abab4b874864",
        "4d7d44ec4e417c9ed77a72ed458afef842a77d7039ade7a6c1485784af6ff090",
    ),
    1953: (
        "52dc3d9cd7f48f36c726a73c78715b89261d341fd87fd2ee040dcdbca73952e6",
        "5accacfa0d850174ceb2856d18c15bb5b3a1a5387479526505a0172c14f77762",
        "02c8d33754e3e1546c8324d3de0a2ba412cb86748deb6bf1a4b1ace87e647bc3",
        "86a69eea288dbca2ce7b3951f0405f65b844ce15aad542cdfe7ee1fc0f049d93",
    ),
}


@pytest.mark.parametrize("n", sorted(PARENT_VERIFY_JSON_SHA256))
def test_verify_json_matches_parent_output(capsys, n):
    reps = full_classification(16, n, cross_check=False).classes
    digests = []
    for rep in reps:
        code, out, _ = run(capsys, "verify", rep.to_string(), "--format", "json")
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == PARENT_VERIFY_JSON_SHA256[n]


def _multipliers_by_brute_force(row: CirculantRow) -> list[list[int]]:
    """[u, s] for every unit u that fixes row up to a shift, s the least
    shift, found by trying every s."""
    found = []
    for u in units(row.n):
        for s in range(row.n):
            if apply_transform(row, EquivalenceWitness(s, u)) == row:
                found.append([u, s])
                break
    return found


@pytest.mark.parametrize(
    "row",
    [
        from_sets(31, W1_31_P, W1_31_N),
        from_sets(31, W2_31_P, W2_31_N),
        from_sets(63, W1_63_P, W1_63_N),
        lift(from_sets(31, W1_31_P, W1_31_N), 3),
    ],
    ids=["W1_31", "W2_31", "W1_63", "W1_31-lift3"],
)
def test_verify_multipliers_match_brute_force(capsys, row):
    code, out, _ = run(capsys, "verify", row.to_string(), "--format", "json")
    assert code == 0
    assert json.loads(out)["multipliers"] == _multipliers_by_brute_force(row)


def test_prune_refuses_an_oversized_pair_grid(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "prune", "81")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "19470136" in err
    assert "2000000" in err


def test_prune_other_square_weight_runs(capsys):
    code, out, _ = run(capsys, "prune", "9")
    assert code == 0
    assert "->" in out
    # t = 3: difference length 1 is possible, so both W = 4 pairs survive
    code, out, _ = run(capsys, "prune", "4", "--multiplier", "3")
    assert code == 0
    assert out.splitlines()[-1] == "2 -> 2 (existence) -> 2 (counting)"


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "31", "16", "5^2", "1^1 5^1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidatesTested"] == 60
    assert len(payload["solutions"]) == 12
    assert len(payload["classes"]) == 2
    assert all(sol["weight"] == 16 for sol in payload["solutions"])
    sizes = sorted(c["size"] for c in payload["classes"])
    assert sizes == [6, 6]
    for c in payload["classes"]:
        assert c["size"] == len(c["members"])
        assert len(c["representative"]) == 31


def test_search_text_lists_solutions(capsys):
    code, out, _ = run(capsys, "search", "21", "16", "1^1 3^1 6^1", "6^1")
    assert code == 0
    assert "candidates tested: 4" in out
    assert "solutions: 2" in out
    assert "classes: 1" in out


def test_search_with_negation_is_not_an_option(capsys):
    # Negation never merges two classes, so the flag that grouped up to sign
    # is gone: argparse refuses it, it is not silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["search", "31", "16", "5^2", "1^1 5^1", "--with-negation"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --with-negation" in capsys.readouterr().err


def test_search_rejects_wrong_olp_sums(capsys):
    code, _, err = run(capsys, "search", "31", "16", "5^2", "5^2")
    assert code == 2
    assert "olp sums" in err


def test_search_refuses_olp_sums_before_listing_any_part(capsys):
    """'1^1000000' stands for a million parts: the sums are read off the
    tokens, so the refusal lists none of them."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "search", "31", "16", "1^1000000", "1^6")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == "error: olp sums must be (10, 6) for weight 16, got (1000000, 6)\n"
    assert out == ""
    assert peak < 2**20


def _rule_payload(capsys, weight: str = "16") -> dict:
    code, out, err = run(capsys, "rule", weight, "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)


def _olp_text(olp: list[list[int]]) -> str:
    return " ".join(f"{length}^{mult}" for length, mult in olp)


def test_rule_searches_every_base_order_of_every_surviving_pair(capsys):
    """Each search is what `cwmat search` prints for it."""
    pairs = _rule_payload(capsys)["pairs"]
    olps = [(_olp_text(p["olpP"]), _olp_text(p["olpN"])) for p in pairs]
    assert dict(zip(olps, (tuple(p["baseOrders"]) for p in pairs))) == dict(BASE_ORDER_CASES)
    searches = [(olp, s) for olp, p in zip(olps, pairs) for s in p["searches"]]
    assert [s["n"] for _, s in searches] == [45, 105, 315, 31, 21, 63]
    for olp, s in searches:
        counts = s["candidatesTested"], len(s["solutions"]), len(s["classes"])
        assert counts == BASE_SEARCH_COUNTS[s["n"]]
        code, out, _ = run(capsys, "search", str(s["n"]), "16", *olp, "--format", "json")
        assert (code, json.loads(out)) == (0, s)


def test_rule_terms_count_the_classes_at_every_odd_order(capsys):
    """The payload's terms are the library's; acceptance criterion 12
    checks those against the class count at every odd n <= 2001."""
    terms = _rule_payload(capsys)["terms"]
    assert terms == [[b, c] for b, c in classification_rule(16, 2)]


def test_rule_text_ends_with_the_rule_and_out_writes_the_payload(capsys, tmp_path):
    path = tmp_path / "rule.json"
    code, out, _ = run(capsys, "rule", "16", "--out", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "classes with multiplier 2 at odd n: [21|n] + 2*[31|n] + [63|n]"
    assert json.loads(path.read_text()) == _rule_payload(capsys)


def test_rule_of_weight_4(capsys):
    assert _rule_payload(capsys, "4")["terms"] == [[7, 1]]


@pytest.mark.parametrize(
    "weight,message",
    [
        ("25", "orbit lengths above 10 are outside the implemented analysis"),
        ("81", "weight 81: 19470136 olp pairs exceed the pair-grid bound of 2000000"),
        ("15", "weight 15 is not a perfect square; odd-order circulant weighing matrices "
               "only exist for square weights"),
    ],
    ids=["25", "81", "15"],
)
def test_rule_refuses_a_weight_it_cannot_handle(capsys, weight, message):
    """Every spec is built before any search: one error line and exit 2."""
    assert run(capsys, "rule", weight) == (2, "", f"error: {message}\n")


def test_rule_requires_base_orders_closed_under_lcm(monkeypatch):
    """The terms are exact only if the lcm of two base orders is one."""
    pair = OlpPair(Olp.from_string("1^1 3^1 6^1"), Olp.from_string("6^1"))
    monkeypatch.setattr("cwmat.search._rule_pairs", lambda weight, t: ((pair, (21, 31)),))
    with pytest.raises(RuntimeError, match=r"base orders \[21, 31\] are not closed under lcm"):
        classification_rule(16, 2)


def test_classify_orders(capsys):
    code, out, _ = run(capsys, "classify", "16", "--max-n", "35", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["maxN"] == 35
    assert [(o["n"], o["count"]) for o in payload["orders"]] == [(21, 1), (31, 2)]
    assert all(o["crossChecked"] for o in payload["orders"])
    # up to 2001 exactly the odd n with 2*[31|n] + [63|n] + [21|n] > 0 are
    # listed, 78 orders, each with that many classes
    code, out, _ = run(capsys, "classify", "16", "--max-n", "2001", "--format", "json")
    assert code == 0
    counts = [(n, 2 * (n % 31 == 0) + (n % 63 == 0) + (n % 21 == 0)) for n in range(1, 2002, 2)]
    want = [(n, count) for n, count in counts if count > 0]
    assert [(o["n"], o["count"]) for o in json.loads(out)["orders"]] == want
    assert len(want) == 78


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "16", "--max-n", "31")
    assert code == 0
    assert "n=21: 1 class" in out
    assert "n=31: 2 classes" in out


def test_classify_rejects_other_weights(capsys):
    code, _, err = run(capsys, "classify", "9", "--max-n", "21")
    assert code == 2
    assert "weight 16" in err


@pytest.mark.parametrize("max_n", ["0", "1", "-3"])
def test_classify_checks_weight_before_any_order(capsys, max_n):
    code, out, err = run(capsys, "classify", "25", "--max-n", max_n)
    assert code == 2
    assert "only weight 16 is classified" in err
    assert out == ""


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_classify_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run(capsys, "classify", "16", "--max-n", max_n)
    assert code == 2
    assert err == f"error: --max-n must be at least 1, got {max_n}\n"
    assert out == ""


def test_classify_refuses_classes_over_its_character_bound(capsys, monkeypatch, tmp_path):
    """The classes at 21 and 31 hold 21 + 2 * 31 = 83 sign characters; at
    63, two more classes bring 209. With the bound at 83 the first run
    prints as before, the second is refused before anything is printed
    or written."""
    monkeypatch.setattr("cwmat.cli.MAX_CLASSIFY_CHARS", 83)
    code, out, _ = run(capsys, "classify", "16", "--max-n", "62")
    assert code == 0
    assert "n=31: 2 classes" in out
    target = tmp_path / "classes.json"
    target.write_text("old")
    code, out, err = run(capsys, "classify", "16", "--max-n", "63", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == "error: the classes at odd n <= 63 hold 209 sign characters, over the bound of 83\n"
    assert target.read_text() == "old"


@pytest.mark.parametrize("t", ["1", "0", "-2", "-3"])
def test_search_rejects_multiplier_below_two(capsys, t):
    # verify refuses such t as search and prune do, rather than reading
    # orbits of a non-multiplier
    for argv in (("search", "63", "16", "1^10", "1^6"), ("verify", "-++0+00"), ("verify", "+")):
        code, out, err = run(capsys, *argv, "--multiplier", t)
        assert code == 2, argv
        assert err == f"error: multiplier base must be at least 2, got {t}\n"
        assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "-++0+00", "--multiplier", "7"), "t=7 is not a unit mod 7"),
        # N is empty, which is no reason to read it as a union of 2-orbits
        (("verify", "++", "--multiplier", "2"), "t=2 is not a unit mod 2"),
        (("verify", "-++0+00", "--multiplier", "14", "--format", "json"),
         "t=14 is not a unit mod 7"),
        (("search", "7", "4", "3^1", "1^1", "--multiplier", "7"), "t=7 is not a unit mod 7"),
    ],
)
def test_verify_and_search_reject_a_multiplier_that_is_no_unit(capsys, argv, message):
    # x -> t*x does not permute Z_n when gcd(t, n) > 1, so there are no orbits to read
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_verify_default_multiplier_reads_no_olp_at_even_order(capsys):
    # t = 2 is only the default: an even row still verifies, with no olp
    code, out, _ = run(capsys, "verify", "+0")
    assert code == 0
    assert "olp(P): none (t=2 is not a unit mod 2)\nolp(N): none (t=2" in out
    code, out, _ = run(capsys, "verify", "+0", "--format", "json")
    assert code == 0
    assert json.loads(out)["olpP"] is None


@pytest.mark.parametrize(
    "olp_p,olp_n,t",
    [
        ("1^10", "1^6", "64"),  # 63 fixed points: about 2.9e18 assignments
        ("2^5", "2^3", "62"),  # 31 orbits {a, -a}: about 4.4e8 assignments
    ],
)
def test_search_refuses_an_unbounded_assignment_count(capsys, olp_p, olp_n, t):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "63", "16", olp_p, olp_n, "--multiplier", t)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "orbit assignments exceed the search bound" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", KNOWN_CW_7_4],
        ["prune", "16"],
        ["search", "31", "16", "5^2", "1^1 5^1"],
        ["classify", "16", "--max-n", "21"],
    ],
)
def test_out_unwritable_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert out == ""
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert f"error: cannot write {tmp_path}: " in err


def test_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classification ran before --out was checked")

    monkeypatch.setattr("cwmat.cli.full_classification", refuse)
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "classify", "16", "--max-n", "105", "--out", str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert out == ""


def test_out_failing_midway_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def dump_then_fail(payload, fh, **kwargs):
        fh.write('{"n": ')
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("cwmat.cli.json.dump", dump_then_fail)
    code, out, err = run(capsys, "verify", KNOWN_CW_7_4, "--out", str(target))
    assert code == 2
    assert err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
    assert out == ""
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_replaces_the_file_with_the_usual_mode(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("old\n")
    code, _, _ = run(capsys, "prune", "16", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["summary"]["countingSurvivors"] == 3
    assert list(tmp_path.iterdir()) == [target]
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask


def test_out_writes_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", KNOWN_CW_7_4, "--out", str(target))
    assert code == 0
    assert "weight: 4" in out  # text still printed
    payload = json.loads(target.read_text())
    assert payload["weight"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "31", "16", "5^2", "1^1 5^1", "--jobs", "2"],
        ["classify", "16", "--max-n", "21", "--jobs", "2"],
    ],
)
def test_jobs_is_not_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "target,argv",
    [
        ("cwmat.cli.cw_equation_holds", ["verify", KNOWN_CW_7_4]),
        ("cwmat.cli.prune", ["prune", "16"]),
        ("cwmat.cli.exhaustive_search", ["search", "31", "16", "5^2", "1^1 5^1"]),
        ("cwmat.cli._rule_pairs", ["rule", "16"]),
        ("cwmat.cli.full_classification", ["classify", "16", "--max-n", "21"]),
    ],
    ids=["verify", "prune", "search", "rule", "classify"],
)
def test_a_refusal_from_any_library_call_is_one_error_line(
    capsys, monkeypatch, tmp_path, target, argv
):
    """A ValueError raised anywhere in a command is one error line and
    exit 2; an old --out FILE stays as it was, with no staged file left."""

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(target, refuse)
    assert run(capsys, *argv) == (2, "", "error: refused\n")
    out = tmp_path / "report.json"
    out.write_text("old\n")
    assert run(capsys, *argv, "--out", str(out)) == (2, "", "error: refused\n")
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def _optional(flag: str, values) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_WEIGHT = st.sampled_from([-4, 0, 1, 2, 4, 9, 15, 16, 25, 36]).map(lambda w: [str(w)])
_ORDER = st.integers(-2, 400).map(lambda n: [str(n)])
# with the olps of the weight-16 pairs that survive pruning, so some searches run
_OLP = st.one_of(
    st.lists(
        st.one_of(
            st.builds("{}^{}".format, st.integers(1, 12), st.integers(1, 4)),
            st.sampled_from(["", "7", "0^1", "1^0", "^2", "3^", "2^x", "-1^2", "1^1^1", "5 ^2"]),
        ),
        max_size=4,
    ).map(" ".join),
    st.sampled_from(["5^2", "1^1 5^1", "1^1 3^1 6^1", "6^1", "4^1 6^1", "2^1 4^1"]),
).map(lambda olp: [olp])
_MULTIPLIER = _optional("--multiplier", st.integers(-2, 3))
_FORMAT = _optional("--format", st.sampled_from(["text", "json", "xml"]))
_ARGV = st.one_of(
    st.tuples(st.just(["verify"]), st.text("-+0 x", max_size=400).map(lambda r: [r]),
              _MULTIPLIER, _FORMAT),
    st.tuples(st.just(["prune"]), _WEIGHT,
              _optional("--level", st.sampled_from(["existence", "counting", "none"])),
              _MULTIPLIER, _FORMAT),
    st.tuples(st.just(["search"]), _ORDER, _WEIGHT, _OLP, _OLP, _MULTIPLIER, _FORMAT),
    st.tuples(st.just(["rule"]), _WEIGHT, _FORMAT),
    st.tuples(st.just(["classify"]), _WEIGHT, _optional("--max-n", st.integers(-2, 400)),
              _FORMAT),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, derandomize=True, database=None)
@given(_ARGV)
def test_every_argv_of_a_bounded_grammar_ends_in_an_exit_code(argv):
    """Every command line of the grammar returns 0, 1 or 2, or is refused
    by argparse with SystemExit(2); nothing else escapes main. A 2 is one
    error line on stderr; a 0 or 1 writes nothing there."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    err = err.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code in (0, 1)
        assert err == ""
