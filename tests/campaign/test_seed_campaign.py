"""The checked-in seed campaign: the regression pins, as data.

``tests/data/seed_campaign.json`` is a stripped export of the builtin
``pins`` suite run by a known-good engine.  This test re-runs the same
suite with the current engine and diffs the fresh campaign against the
seed: any exact-optimum drift, verification regression or case-set
change fails.  This replaces the hand-maintained cost table that used
to live in ``tests/test_regression_pins.py`` -- regenerate the file
after a *conscious* generator/engine change with::

    repro-mut campaign run pins --db pins.sqlite
    repro-mut campaign export pins --db pins.sqlite --strip-volatile \
        --out tests/data/seed_campaign.json
"""

import json
from pathlib import Path

import pytest

from repro.campaign import CampaignDB, diff_campaigns, load_suite, run_campaign

SEED_FILE = Path(__file__).resolve().parent.parent / "data" / "seed_campaign.json"


@pytest.fixture(scope="module")
def seed_export():
    return json.loads(SEED_FILE.read_text())


@pytest.fixture(scope="module")
def campaign_db(tmp_path_factory, seed_export):
    db_path = tmp_path_factory.mktemp("seed-campaign") / "c.sqlite"
    with CampaignDB(db_path) as db:
        db.import_export(seed_export, name="seed")
        run_campaign(db, load_suite("pins"), name="fresh", workers=2,
                     verify=True)
        yield db


@pytest.fixture(scope="module")
def diff(campaign_db):
    return diff_campaigns(campaign_db, "seed", "fresh")


class TestSeedFile:
    def test_format_and_shape(self, seed_export):
        assert seed_export["format"] == "repro.campaign.export.v1"
        assert seed_export["campaign"]["suite"] == "pins"
        assert len(seed_export["cases"]) == 12
        # Stripped of run-to-run fields: nothing volatile checked in.
        for case in seed_export["cases"]:
            assert "wall_seconds" not in case
            assert "cache_status" not in case

    def test_known_pins_present(self, seed_export):
        costs = {
            c["case_id"]: c["cost"] for c in seed_export["cases"]
        }
        # The former TestOptimalCostPins table, now frozen as data.
        assert costs["random/n10/s42@bnb"] == pytest.approx(203.0)
        assert costs["random/n12/s42@bnb"] == pytest.approx(136.0)
        assert costs["random/n14/s42@bnb"] == pytest.approx(197.0)
        assert costs["random/n16/s42@bnb"] == pytest.approx(196.0)
        assert costs["hier/db08d7f8/s110@bnb"] == pytest.approx(
            56.6420578228095
        )
        assert costs["hier/db08d7f8/s110@compact"] == pytest.approx(
            57.40283480316444
        )


class TestFreshRunAgainstSeed:
    def test_generators_unchanged(self, diff):
        # Same case ids, same matrix digests: the seeded workloads are
        # byte-identical to what the seed engine solved.
        assert not diff.new_cases
        assert not diff.missing_cases
        assert not diff.input_changes
        assert diff.matched_cases == 12

    def test_no_exact_cost_drift(self, diff):
        assert not diff.exact_violations, diff.render()

    def test_node_counts_unchanged(self, campaign_db, seed_export):
        # The diff compares costs only; node counts pin the search
        # order itself, so an engine change that reaches the same optima
        # by a different route is caught here.
        fresh = campaign_db.get_campaign("fresh")
        got = {
            row["case_id"]: row["nodes_expanded"]
            for row in campaign_db.case_rows(int(fresh["id"]))
        }
        want = {
            case["case_id"]: case["nodes_expanded"]
            for case in seed_export["cases"]
        }
        assert got == want

    def test_no_regressions(self, diff):
        assert not diff.verification_regressions, diff.render()
        assert not diff.state_regressions, diff.render()
        assert diff.ok
