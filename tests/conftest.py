import pytest
from hypothesis import settings

# Property tests run the same examples on every run, and no example fails on
# time: a slow spell on a shared machine must not turn into a test failure.
settings.register_profile("genderbeam", deadline=None, derandomize=True)
settings.load_profile("genderbeam")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory shared by the examples of a module's property tests."""
    return tmp_path_factory.mktemp("properties")


# six gendered words, so each sentence has 64 variants, as in an n-best list
# of gendered variants of one translation
GENDERED_FORMS = (("elo", "ela"), ("muro", "mura"), ("lernanto", "lernantino"),
                  ("alto", "alta"), ("juno", "juna"), ("lerto", "lerta"))


@pytest.fixture(scope="module")
def variant_files(tmp_path_factory):
    """An n-best file of 64 eleven-token variants for each of 200 sentences,
    and an alignment file with one diagonal line per variant."""
    directory = tmp_path_factory.mktemp("variants")
    links = " ".join(f"{i}-{i}" for i in range(11))
    nbest, align = [], []
    for sent_id in range(200):
        for rank in range(64):
            w = [forms[(rank >> bit) & 1] for bit, forms in enumerate(GENDERED_FORMS)]
            tokens = (f"s{sent_id % 10}", w[0], w[1], "cxar", w[2], "estis", w[3], "sed", w[4], "kaj", w[5])
            nbest.append(f"{sent_id} ||| {' '.join(tokens)} ||| {-1.0 - rank / 64!r}\n")
            align.append(f"{sent_id}\t{rank}\t{links}\n")
    (directory / "variants.nbest").write_text("".join(nbest), encoding="utf-8")
    (directory / "variants.align").write_text("".join(align), encoding="utf-8")
    return directory, len(nbest)
