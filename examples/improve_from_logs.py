"""The §9 lessons-learned loop: improve the system from its usage logs.

The paper closes with: "One such example is learning from the system
usage logs, and using that as a feedback to further improve the system."
This example runs that loop end to end:

1. serve a month of simulated traffic and persist the interaction log,
2. mine the negatively-marked interactions for SME review,
3. harvest confident positive interactions as new training examples,
4. rebuild the agent and measure the accuracy change,
5. export the refreshed conversation space (the Watson-Assistant-
   workspace analog) and the ontology as OWL.

Run:
    python examples/improve_from_logs.py
"""

import json
import tempfile
from pathlib import Path

from repro.bootstrap import space_to_dict
from repro.engine import (
    ConversationAgent,
    load_log,
    mine_negative_interactions,
    retrain_from_log,
    save_log,
)
from repro.eval import WorkloadGenerator, simulate_usage
from repro.medical import build_mdx_database, build_mdx_space, rename_to_paper_intents
from repro.medical.knowledge import mdx_glossary
from repro.ontology import ontology_to_owl


def build_agent(space, database):
    return ConversationAgent.build(
        space, database, glossary=mdx_glossary(),
        agent_name="Micromedex", domain="drug reference",
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="mdx-logs-"))
    print("Building Conversational MDX...")
    database = build_mdx_database()
    space = build_mdx_space(database)
    rename_to_paper_intents(space)
    agent = build_agent(space, database)

    print("Serving 1200 simulated interactions...")
    generator = WorkloadGenerator(agent.space, seed=7)
    queries = generator.generate(1200)
    before = simulate_usage(agent, queries, seed=11)
    print(f"  accuracy before: {before.accuracy:.1%}")

    # Persist the simulation's interactions with their feedback marks.
    log_path = workdir / "interactions.jsonl"
    save_log(before.records, log_path)
    print(f"  log persisted: {log_path}")

    log = load_log(log_path)
    print("\nTop negative clusters (for SME review):")
    for cluster in mine_negative_interactions(log)[:5]:
        print(f"  {cluster.intent:32s} {cluster.size:3d} negatives; "
              f"e.g. {cluster.utterances[0]!r}")

    added = retrain_from_log(log, space, min_confidence=0.6)
    print(f"\nHarvested {added} confident positive phrasings into the "
          "training set; rebuilding...")
    improved_agent = build_agent(space, database)
    after = simulate_usage(improved_agent, queries, seed=11)
    print(f"  accuracy after:  {after.accuracy:.1%}")

    export_path = workdir / "conversation_space.json"
    export_path.write_text(json.dumps(space_to_dict(space)))
    owl_path = workdir / "mdx.owl"
    owl_path.write_text(ontology_to_owl(space.ontology))
    print(f"\nExports written:\n  {export_path}\n  {owl_path}")


if __name__ == "__main__":
    main()
