"""Conversational MDX — replay the paper's §6.3 session, or chat live.

Run the scripted replay (the paper's 20-line clinical conversation plus
the "User 480" keyword-search session):

    python examples/medical_assistant.py

Or chat with the agent yourself:

    python examples/medical_assistant.py --interactive
"""

from __future__ import annotations

import sys

from repro.engine import interaction_records
from repro.eval.success import success_rate
from repro.medical import build_mdx_agent

CLINICAL_SESSION = [
    "show me drugs that treat psoriasis",
    "adult",
    "I mean pediatric",
    "what do you mean by effective?",
    "thanks",
    "dosage for Tazarotene",
    "how about for Fluocinonide?",
    "thanks",
    "no",
    "goodbye",
]

USER_480_SESSION = [
    "cogentin",
    "What are the side effects of cogentin",
    "no",
    "cogentin adverse effects",
]


def replay(agent, title: str, turns: list[str]) -> None:
    print(f"\n===== {title} =====")
    session = agent.session()
    print(f"A: {session.open()}")
    for utterance in turns:
        response = session.ask(utterance)
        print(f"U: {utterance}")
        print(f"A: {response.text}")
    print()


def interactive(agent) -> None:
    session = agent.session()
    print(f"A: {session.open()}")
    print("(type 'quit' to exit; '+1'/'-1' to leave thumbs feedback)\n")
    while True:
        try:
            utterance = input("U: ").strip()
        except EOFError:
            break
        if not utterance:
            continue
        if utterance.lower() in ("quit", "exit"):
            break
        if utterance == "+1":
            session.thumbs_up()
            print("   (thumbs up recorded)")
            continue
        if utterance == "-1":
            session.thumbs_down()
            print("   (thumbs down recorded)")
            continue
        response = session.ask(utterance)
        print(f"A: {response.text}")
    rate = success_rate(interaction_records(session.id, session.transcript()))
    print(f"\nSession ended. Equation-1 success rate so far: {rate:.1%}")


def main() -> None:
    print("Building Conversational MDX...")
    agent = build_mdx_agent()
    if "--interactive" in sys.argv:
        interactive(agent)
        return
    replay(agent, "§6.3 sample conversation (clinical session)",
           CLINICAL_SESSION)
    replay(agent, "§6.3 User 480 (keyword-search session)", USER_480_SESSION)


if __name__ == "__main__":
    main()
