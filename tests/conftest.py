"""Shared fixtures: a toy medical KB and (smaller) MDX builds.

Session-scoped fixtures are treated as read-only by tests; anything that
mutates a space or agent builds its own.
"""

from __future__ import annotations

import pytest

from repro.bootstrap import bootstrap_conversation_space
from repro.engine import ConversationAgent
from repro.kb import Column, Database, DataType, ForeignKey, TableSchema
from repro.medical import (
    GeneratorConfig,
    build_mdx_agent,
    build_mdx_database,
    build_mdx_ontology,
    build_mdx_space,
)
from repro.ontology import generate_ontology

TOY_DRUGS = ["Aspirin", "Ibuprofen", "Tazarotene", "Fluocinonide", "Benazepril",
             "Calcium Carbonate", "Calcium Citrate"]
TOY_CONDITIONS = ["Fever", "Psoriasis", "Acne", "Hypertension", "Pain",
                  "Heartburn", "Osteoporosis"]


def make_toy_database() -> Database:
    """A small drug KB exercising lookups, junctions, isA and union."""
    db = Database("toy")
    db.create_table(TableSchema(
        "drug",
        [Column("drug_id", DataType.INTEGER, nullable=False),
         Column("name", DataType.TEXT, nullable=False),
         Column("brand", DataType.TEXT)],
        primary_key="drug_id",
    ))
    db.create_table(TableSchema(
        "indication",
        [Column("ind_id", DataType.INTEGER, nullable=False),
         Column("name", DataType.TEXT, nullable=False)],
        primary_key="ind_id",
    ))
    db.create_table(TableSchema(
        "precaution",
        [Column("p_id", DataType.INTEGER, nullable=False),
         Column("drug_id", DataType.INTEGER),
         Column("description", DataType.TEXT)],
        primary_key="p_id",
        foreign_keys=[ForeignKey("drug_id", "drug", "drug_id")],
    ))
    db.create_table(TableSchema(
        "dosage",
        [Column("d_id", DataType.INTEGER, nullable=False),
         Column("drug_id", DataType.INTEGER),
         Column("ind_id", DataType.INTEGER),
         Column("description", DataType.TEXT)],
        primary_key="d_id",
        foreign_keys=[ForeignKey("drug_id", "drug", "drug_id"),
                      ForeignKey("ind_id", "indication", "ind_id")],
    ))
    db.create_table(TableSchema(
        "risk",
        [Column("risk_id", DataType.INTEGER, nullable=False),
         Column("drug_id", DataType.INTEGER),
         Column("name", DataType.TEXT)],
        primary_key="risk_id",
        foreign_keys=[ForeignKey("drug_id", "drug", "drug_id")],
    ))
    db.create_table(TableSchema(
        "contra_indication",
        [Column("risk_id", DataType.INTEGER, nullable=False),
         Column("note", DataType.TEXT)],
        primary_key="risk_id",
        foreign_keys=[ForeignKey("risk_id", "risk", "risk_id")],
    ))
    db.create_table(TableSchema(
        "black_box_warning",
        [Column("risk_id", DataType.INTEGER, nullable=False),
         Column("warning_text", DataType.TEXT)],
        primary_key="risk_id",
        foreign_keys=[ForeignKey("risk_id", "risk", "risk_id")],
    ))
    db.create_table(TableSchema(
        "treats",
        [Column("drug_id", DataType.INTEGER, nullable=False),
         Column("ind_id", DataType.INTEGER, nullable=False)],
        foreign_keys=[ForeignKey("drug_id", "drug", "drug_id"),
                      ForeignKey("ind_id", "indication", "ind_id")],
    ))
    for i, (drug, cond) in enumerate(zip(TOY_DRUGS, TOY_CONDITIONS), start=1):
        db.insert("drug", {"drug_id": i, "name": drug, "brand": f"Brand{i}"})
        db.insert("indication", {"ind_id": i, "name": cond})
    for i in range(1, len(TOY_DRUGS) + 1):
        db.insert("treats", {"drug_id": i, "ind_id": i})
        db.insert("precaution", {
            "p_id": i, "drug_id": i,
            "description": "Use with caution." if i % 2 else "Take with food.",
        })
        db.insert("dosage", {
            "d_id": i, "drug_id": i, "ind_id": i,
            "description": f"{10 * i}mg daily",
        })
    db.insert("risk", {"risk_id": 1, "drug_id": 1, "name": "Contraindication"})
    db.insert("risk", {"risk_id": 2, "drug_id": 2, "name": "Black Box Warning"})
    db.insert("contra_indication", {"risk_id": 1, "note": "Avoid in ulcer."})
    db.insert("black_box_warning", {"risk_id": 2, "warning_text": "Bleeding risk."})
    return db


@pytest.fixture(scope="session")
def toy_db() -> Database:
    return make_toy_database()


@pytest.fixture(scope="session")
def toy_ontology(toy_db):
    ontology = generate_ontology(toy_db, "toy")
    ontology.concept("Drug").synonyms.extend(["medication", "medicine", "meds"])
    return ontology


@pytest.fixture(scope="session")
def toy_space(toy_ontology, toy_db):
    return bootstrap_conversation_space(
        toy_ontology, toy_db, key_concepts=["Drug", "Indication"]
    )


@pytest.fixture(scope="session")
def toy_agent(toy_ontology, toy_db):
    space = bootstrap_conversation_space(
        toy_ontology, toy_db, key_concepts=["Drug", "Indication"]
    )
    return ConversationAgent.build(
        space, toy_db, agent_name="ToyMDX", domain="toy drug reference"
    )


SMALL_MDX_CONFIG = GeneratorConfig(max_drugs=40, max_conditions=20)


@pytest.fixture(scope="session")
def mdx_small_db():
    return build_mdx_database(SMALL_MDX_CONFIG)


@pytest.fixture(scope="session")
def mdx_small_ontology(mdx_small_db):
    return build_mdx_ontology(mdx_small_db)


@pytest.fixture(scope="session")
def mdx_small_space(mdx_small_db, mdx_small_ontology):
    return build_mdx_space(mdx_small_db, mdx_small_ontology)


@pytest.fixture(scope="session")
def mdx_agent():
    """The full Conversational MDX agent (built once per test session)."""
    return build_mdx_agent()


@pytest.fixture(scope="session")
def mdx_artifacts(tmp_path_factory):
    """A fresh ``repro export`` directory (read-only: copy it to edit it)."""
    from repro.cli import main

    out = tmp_path_factory.mktemp("mdx-artifacts")
    assert main(["export", "--out", str(out)]) == 0
    return out


def reseal(directory) -> None:
    """Rewrite ``artifacts.json`` to match the directory's files as they
    are now, as if the export had written them."""
    import hashlib
    import json

    from repro.artifacts import FILES, MANIFEST_FILE

    digests = {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in FILES
    }
    (directory / MANIFEST_FILE).write_text(
        json.dumps({"sha256": digests}), encoding="utf-8"
    )
