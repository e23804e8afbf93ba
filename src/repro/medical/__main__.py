"""``python -m repro.medical``: fit the MDX intent classifier from scratch
and rewrite the shipped ``mdx_intent_model.npz`` (after changing the MDX
training examples or what the classifier computes from them)."""

from repro.medical.build import MDX_INTENT_MODEL, build_mdx_agent

if __name__ == "__main__":
    build_mdx_agent(model_path=None).classifier.save(MDX_INTENT_MODEL)
    print(f"wrote {MDX_INTENT_MODEL}")
