import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import bqsos
from bqsos.fields import UsageError, classify_field
from bqsos.orders import maximal_order, quadratic_order, quadratic_order_half
from bqsos.decomposition import length
from bqsos.verification import (
    Budget,
    BudgetExceeded,
    EXPECTED_LENGTH,
    FAMILIES,
    FamilyNotApplicable,
    LEMMA_ITEMS,
    SQRT5_S_NOT_1_MIN,
    _lemma_item_pairs,
    claim_row,
    construct_witness,
    expected_length,
    near_shift_identity,
    quadratic_baseline_entries,
    run_claims,
    sweep,
    verify_table,
)


class TestConstruction:
    def test_all_families_produce_integral_totally_nonnegative_elements(self):
        for family in FAMILIES:
            if family.startswith("Quadratic"):
                continue
            hits = 0
            for p in range(2, 40):
                for q in range(p + 1, 60):
                    try:
                        field = classify_field(p, q)
                    except Exception:
                        continue
                    try:
                        alpha = construct_witness(family, field)
                    except FamilyNotApplicable:
                        continue
                    hits += 1
                    order = maximal_order(field)
                    assert order.contains(alpha), (family, p, q)
                    assert alpha.is_totally_nonnegative(), (family, p, q)
            assert hits > 0, family

    def test_quadratic_families(self):
        for order, alpha, expected in quadratic_baseline_entries():
            assert order.contains(alpha)
            assert construct_witness("QuadraticThm31", order) == alpha
            assert expected_length("QuadraticThm31", order) == expected
        w = construct_witness("QuadraticObs32", quadratic_order(8))
        assert w.abs_trace() == 16
        w = construct_witness("QuadraticObs32", quadratic_order_half(17))
        assert w.abs_trace() == Fraction(23, 2)

    def test_applicability_errors_name_the_condition(self):
        with pytest.raises(FamilyNotApplicable, match="m = 1 mod 4"):
            construct_witness("MIs1", classify_field(2, 3))
        with pytest.raises(FamilyNotApplicable, match="q >= 17"):
            construct_witness("B23Coprime", classify_field(10, 13))
        with pytest.raises(FamilyNotApplicable, match="type B1"):
            construct_witness("B1CoprimeLen6", classify_field(5, 13))
        with pytest.raises(FamilyNotApplicable, match="coprime"):
            construct_witness("B4Coprime", classify_field(65, 85))
        with pytest.raises(FamilyNotApplicable):
            construct_witness("QuadraticObs32", quadratic_order(6))
        with pytest.raises(ValueError):
            construct_witness("NoSuchFamily", classify_field(2, 3))

    def test_exceptional_substitutes(self):
        f = classify_field(30, 35)
        alpha = construct_witness("MNot1", f)
        assert alpha == 7 + (1 + f.sqrt_of(42)) ** 2
        f = classify_field(10, 14)
        alpha = construct_witness("MPlus4_8_12", f)
        assert alpha == 7 + ((f.sqrt_of(10) + f.sqrt_of(14)) / 2) ** 2

    def test_sqrt13_routing(self):
        f = classify_field(13, 14)
        a = construct_witness("Sqrt13", f)
        assert a == 12 + 2 * f.sqrt_of(13) + (1 + f.sqrt_of(14)) ** 2
        g = classify_field(6, 13)
        b = construct_witness("Sqrt13", g)
        assert b == 12 + 2 * g.sqrt_of(13) + (1 + g.sqrt_of(6)) ** 2

    def test_twelve_branch_covers_applicable_fields(self):
        # for m != 1 mod 4 and s - m in (4, 8, 12) the start 7 + (1+sqrt(m))^2
        # is a sum of at most 4 squares (near_shift_identity), so the branch
        # must not apply there; everywhere else it builds an element
        hits = {"B1": 0, "B2": 0, "B3": 0, "B4a": 0, "B4b": 0}
        for p in range(2, 40):
            for q in range(p + 1, 60):
                try:
                    field = classify_field(p, q)
                except Exception:
                    continue
                if field.m in (2, 3, 5, 6, 7, 13):
                    continue
                if field.m % 4 != 1 and field.s - field.m in (4, 8, 12):
                    with pytest.raises(FamilyNotApplicable, match="m\\+4"):
                        construct_witness("TwelveBranch", field)
                    continue
                alpha = construct_witness("TwelveBranch", field)
                assert maximal_order(field).contains(alpha)
                hits[field.basis_type] += 1
        assert all(count > 0 for count in hits.values())


class TestIdentity:
    def test_near_shift_identity(self):
        for pq, parts in [((19, 23), 3), ((15, 23), 4), ((11, 23), 2)]:
            field = classify_field(*pq)
            alpha0, xs = near_shift_identity(field)
            assert len(xs) == parts
            total = field.zero()
            for x in xs:
                total = total + x * x
            assert total == alpha0
        with pytest.raises(FamilyNotApplicable):
            near_shift_identity(classify_field(2, 3))


class TestLengths:
    def test_sample_lengths(self):
        samples = [
            ("MIs1", (17, 19), 5),
            ("MNot1", (10, 11), 5),
            ("Sqrt7", (7, 10), 5),
            ("Sqrt13", (6, 13), 6),
            # B4a with s0 = 13 < 3*t0 = 15: the w = (1+sqrt(m)+sqrt(s)+sqrt(t))/4 branch
            ("TwelveBranch", (65, 85), 6),
            ("Tinkova", (30, 39), 6),
            ("B23Coprime", (10, 17), 6),
            ("B4Coprime", (17, 21), 6),
        ]
        for family, pq, expected in samples:
            field = classify_field(*pq)
            order = maximal_order(field)
            alpha = construct_witness(family, field)
            assert expected_length(family, field) == expected
            result = length(order, alpha)
            assert result.is_exact and result.k == expected, (family, pq)


class TestVerifyTable:
    def test_every_family_has_an_expected_length(self):
        # QuadraticThm31 reads its length from the Thm 3.1 baseline table
        assert set(FAMILIES) - set(EXPECTED_LENGTH) == {"QuadraticThm31"}

    @pytest.mark.parametrize("table, options", [
        ("thm3.1", {"item": 3}),
        ("prop4.4", {"item": 3}),
        ("thm3.1", {"s_max": 9}),
    ])
    def test_lemma_options_rejected_for_other_tables(self, table, options):
        with pytest.raises(ValueError, match="lemma4.3"):
            verify_table(table, **options)

    def test_quadratic_baseline_table(self):
        rows = verify_table("thm3.1")
        assert len(rows) == 7
        assert all(row["status"] == "PASS" for row in rows)
        assert [row["length"] for row in rows] == [3, 3, 3, 4, 4, 4, 5]
        assert [(row["order"], row["alpha"]["pretty"]) for row in rows] == [
            ("maximal", "6 + 2*sqrt(2)"),
            ("Z[sqrt(3)]", "9 + 4*sqrt(3)"),
            ("Z[(1+sqrt(5))/2]", "7/2 + 1/2*sqrt(5)"),
            ("Z[sqrt(6)]", "10 + 2*sqrt(6)"),
            ("Z[sqrt(7)]", "11 + 2*sqrt(7)"),
            ("Z[sqrt(5)]", "9 + 2*sqrt(5)"),
            ("Z[(1+sqrt(13))/2]", "12 + 2*sqrt(13)"),
        ]

    def test_lemma_item(self):
        rows = verify_table("lemma4.3", item=1)
        assert len(rows) == len(LEMMA_ITEMS[1][1])
        assert all(row["status"] == "PASS" for row in rows)
        assert all(row["item"] == 1 for row in rows)

    def test_open_ended_item_is_scaled(self):
        rows = verify_table("lemma4.3", item=15, s_max=30)
        assert rows and all(row["status"] == "PASS" for row in rows)
        assert all(row["field"]["s"] <= 30 for row in rows)

    def test_least_s_of_open_ended_item(self):
        assert _lemma_item_pairs(15, SQRT5_S_NOT_1_MIN)[1] == [(5, SQRT5_S_NOT_1_MIN)]
        assert _lemma_item_pairs(15, SQRT5_S_NOT_1_MIN - 1)[1] == []

    @pytest.mark.parametrize("item", [15, None])
    @pytest.mark.parametrize("s_max", [-5, SQRT5_S_NOT_1_MIN - 1])
    def test_s_max_that_empties_open_ended_item(self, item, s_max):
        with pytest.raises(ValueError, match="item 15"):
            verify_table("lemma4.3", item=item, s_max=s_max)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            verify_table("nope")

    @pytest.mark.parametrize("item", [0, 99])
    def test_unknown_item(self, item):
        with pytest.raises(ValueError, match="item"):
            verify_table("lemma4.3", item=item, s_max=9)

    def test_prop44_table(self):
        rows = verify_table("prop4.4")
        assert [row["status"] for row in rows] == ["PASS"] * 7
        assert [row["max_length"] for row in rows] == [3, 3, 3, 4, 4, 4, 4]
        assert all(row["alpha_attains"] for row in rows)
        with pytest.raises(BudgetExceeded) as exc:
            verify_table("prop4.4", budget=Budget(seconds=0.0))
        assert exc.value.partial == rows[:1]

    def test_budget_exceeded_keeps_partial_rows(self):
        budget = Budget(seconds=0.0)
        with pytest.raises(BudgetExceeded) as exc:
            verify_table("thm3.1", budget=budget)
        assert len(exc.value.partial) == 1


class TestSweep:
    def test_deterministic_across_jobs(self):
        kwargs = dict(m_range=(17, 21), s_range=(18, 23))
        def strip_timing(rows):
            return [{k: v for k, v in row.items() if k != "millis"} for row in rows]

        serial = sweep("MIs1", **kwargs, jobs=1)
        parallel = sweep("MIs1", **kwargs, jobs=2)
        assert strip_timing(serial) == strip_timing(parallel)
        passing = [row for row in serial if row["status"] == "PASS"]
        assert {(row["p"], row["q"]) for row in passing} >= {(17, 19), (17, 21)}

    def test_not_applicable_rows_are_reported(self):
        rows = sweep("MIs1", (19, 19), (21, 21))
        assert rows[0]["status"] == "NOT_APPLICABLE"
        assert "m = 1 mod 4" in rows[0]["reason"]

    @pytest.mark.parametrize("m_range, s_range", [((21, 17), (18, 23)),
                                                  ((17, 17), (23, 18))])
    def test_reversed_range_raises(self, m_range, s_range):
        # the CLI rejects a reversed A..B; the library must not read it as
        # an empty, passed grid
        with pytest.raises(ValueError, match="must not exceed"):
            sweep("MIs1", m_range, s_range)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raise(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            sweep("MIs1", (17, 17), (19, 19), jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            run_claims(claim_row, [], jobs=jobs)

    def test_serial_runs_do_not_import_multiprocessing(self):
        # only a pool needs it; importing the package and the CLI must not
        # load it
        src = os.path.dirname(os.path.dirname(bqsos.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = ("import sys, bqsos, bqsos.cli; "
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_node_budget_stops_with_finished_rows(self, tmp_path):
        # the grid has three rows; the first one alone exceeds one node
        for jobs in (1, 2):
            path = str(tmp_path / f"rows{jobs}.jsonl")
            with pytest.raises(BudgetExceeded) as exc:
                sweep("MIs1", (17, 17), (19, 22), budget=Budget(nodes=1),
                      jobs=jobs, resume_path=path)
            partial = exc.value.partial
            assert [(row["p"], row["q"]) for row in partial] == [(17, 19)]
            with open(path) as fh:
                kept = [json.loads(line) for line in fh if line.strip()]
            assert kept == partial

    def test_resume_skips_done_rows(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        first = sweep("MIs1", (17, 17), (19, 22), resume_path=path)
        again = sweep("MIs1", (17, 17), (19, 22), resume_path=path)
        assert first == again
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == len(first)

    def test_resume_recomputes_a_truncated_last_row(self, tmp_path):
        # a kill while appending leaves two whole rows and a partial one
        path = tmp_path / "rows.jsonl"
        full = sweep("MIs1", (17, 17), (19, 22))
        whole = "".join(json.dumps(row) + "\n" for row in full[:2])
        path.write_text(whole + json.dumps(full[2])[:40])
        rows = sweep("MIs1", (17, 17), (19, 22), resume_path=str(path))
        assert rows[:2] == full[:2]
        assert {k: v for k, v in rows[2].items() if k != "millis"} == {
            k: v for k, v in full[2].items() if k != "millis"}
        text = path.read_text()
        assert text.startswith(whole)
        assert [json.loads(line) for line in text.splitlines()] == rows

    def test_resume_ignores_rows_of_another_family(self, tmp_path):
        # MIs1 passes at (17, 19), where MNot1 does not apply
        path = str(tmp_path / "rows.jsonl")
        (mis1,) = sweep("MIs1", (17, 17), (19, 19), resume_path=path)
        rows = sweep("MNot1", (17, 17), (19, 19), resume_path=path)
        assert rows == sweep("MNot1", (17, 17), (19, 19))
        assert rows[0]["status"] == "NOT_APPLICABLE"
        with open(path) as fh:
            assert [json.loads(line) for line in fh] == [mis1, *rows]

    def test_resume_ignores_rows_outside_the_grid(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        (mis1,) = sweep("MIs1", (17, 17), (19, 19), resume_path=path)
        rows = sweep("Sqrt7", (7, 7), (10, 10), resume_path=path)
        assert [(row["family"], row["p"], row["q"]) for row in rows] == [("Sqrt7", 7, 10)]
        with open(path) as fh:
            assert [json.loads(line) for line in fh] == [mis1, *rows]

    @pytest.mark.parametrize("options", [{"jobs": 0}, {"m_range": (21, 17)},
                                         {"family": "Nope"}])
    def test_usage_error_leaves_resume_file_untouched(self, tmp_path, options):
        # a last line cut off by a kill, which a run would drop
        path = tmp_path / "rows.jsonl"
        data = b'{"p": 17, "q": 19, "family": "MIs1", "status": "PASS"}\n{"p": 17, "q"'
        path.write_bytes(data)
        args = {"family": "MIs1", "m_range": (17, 17), "s_range": (19, 22), **options}
        with pytest.raises(UsageError):
            sweep(**args, resume_path=str(path))
        assert path.read_bytes() == data
