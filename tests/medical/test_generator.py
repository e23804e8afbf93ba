"""Tests for the synthetic MDX data generator."""

import hashlib

import pytest

from repro.kb.io import load_sqlite, save_sqlite
from repro.medical import GeneratorConfig, build_mdx_database, populate_mdx

# sha256 over repr((name, column_names, rows)) of every table of the
# default build, in creation order.
MDX_TABLE_DIGEST = (
    "7b6f5296d6308538624fc5ae53a5274653cd740f78b3bfb6b069390d3a6cf4ba"
)


def _typed(rows):
    # True == 1 and 1 == 1.0: compare the stored Python types too.
    return [[(type(value), value) for value in row] for row in rows]


def test_default_build_is_pinned_and_round_trips(tmp_path):
    db = build_mdx_database()
    digest = hashlib.sha256()
    for table in db.tables():
        digest.update(repr(
            (table.name, table.schema.column_names(), table.rows)
        ).encode())
    assert digest.hexdigest() == MDX_TABLE_DIGEST

    save_sqlite(db, tmp_path / "kb.db")
    restored = load_sqlite(tmp_path / "kb.db")
    assert restored.table_names() == db.table_names()
    for table in db.tables():
        assert _typed(restored.table(table.name).rows) == _typed(table.rows)


class TestDeterminism:
    def test_same_seed_same_data(self):
        config = GeneratorConfig(seed=1, max_drugs=15, max_conditions=10)
        db1 = populate_mdx(config=config)
        db2 = populate_mdx(config=config)
        assert db1.table("dosage").rows == db2.table("dosage").rows
        assert db1.table("drug").rows == db2.table("drug").rows

    def test_different_seed_differs(self):
        db1 = populate_mdx(config=GeneratorConfig(seed=1, max_drugs=15, max_conditions=10))
        db2 = populate_mdx(config=GeneratorConfig(seed=2, max_drugs=15, max_conditions=10))
        assert db1.table("adverse_effect").rows != db2.table("adverse_effect").rows


class TestContent:
    @pytest.fixture(scope="class")
    def db(self, mdx_small_db):
        return mdx_small_db

    def test_drugs_use_public_names(self, db):
        names = db.table("drug").distinct_values("name")
        assert "Aspirin" in names
        assert "Ibuprofen" in names

    def test_every_drug_has_core_records(self, db):
        n_drugs = len(db.table("drug"))
        for table in ("pharmacokinetics", "regulatory_status",
                      "administration", "patient_education"):
            assert len(db.table(table)) >= n_drugs

    def test_treats_pairs_follow_class_affinity(self, db):
        # Fever is treated by NSAIDs/analgesics (always in the drug list),
        # and every treating drug's class must appear in the affinity map.
        result = db.query(
            "SELECT d.name FROM treats t "
            "INNER JOIN drug d ON t.drug_id = d.drug_id "
            "INNER JOIN indication i ON t.indication_id = i.indication_id "
            "WHERE i.name = 'Fever'"
        )
        names = {r[0] for r in result.rows}
        assert "Aspirin" in names
        assert "Ibuprofen" in names

    def test_dosage_rows_reference_treat_pairs(self, db):
        orphan = db.query(
            "SELECT COUNT(*) FROM dosage dz "
            "LEFT JOIN treats t ON dz.drug_id = t.drug_id "
            "WHERE t.drug_id IS NULL"
        )
        assert orphan.scalar() == 0

    def test_union_partition_risk(self, db):
        risks = db.query("SELECT COUNT(*) FROM risk").scalar()
        children = (
            db.query("SELECT COUNT(*) FROM contra_indication").scalar()
            + db.query("SELECT COUNT(*) FROM black_box_warning").scalar()
        )
        assert risks == children

    def test_union_partition_dose_adjustment(self, db):
        parents = db.query("SELECT COUNT(*) FROM dose_adjustment").scalar()
        children = (
            db.query("SELECT COUNT(*) FROM renal_adjustment").scalar()
            + db.query("SELECT COUNT(*) FROM hepatic_adjustment").scalar()
        )
        assert parents == children

    def test_interaction_parent_keeps_uncovered_rows(self, db):
        parents = db.query("SELECT COUNT(*) FROM drug_interaction").scalar()
        children = sum(
            db.query(f"SELECT COUNT(*) FROM {t}").scalar()
            for t in ("drug_drug_interaction", "drug_food_interaction",
                      "drug_lab_interaction")
        )
        assert parents > children  # inheritance, not union

    def test_dosage_descriptions_are_categorical(self, db):
        stats = db.statistics("dosage").column("description")
        assert stats.is_categorical()

    def test_brand_synonyms_present(self, db):
        brands = db.table("brand").distinct_values("name")
        assert "Bayer" in brands

    def test_size_caps_respected(self):
        db = populate_mdx(config=GeneratorConfig(max_drugs=10, max_conditions=5))
        assert len(db.table("drug")) == 10
        assert len(db.table("indication")) == 5
