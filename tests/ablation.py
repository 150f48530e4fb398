"""The synthetic ablation suite of criteria 07 and 08.

Each cell of ``ABLATION_MATRIX`` names a variant and the ``WeaselConfig``
fields it changes, for ``dataclasses.replace``.
"""

from dataclasses import replace

from weaselts import WeaselConfig, synthetic

ABLATION_MATRIX = (
    ("supervised+bigrams", {}),
    ("supervised+unigrams", {"bigrams": False}),
    ("unsupervised+bigrams", {"supervised": False}),
    ("unsupervised+unigrams", {"bigrams": False, "supervised": False}),
)


def ablation_suite():
    """The five synthetic datasets exercised by the ablation tests.

    Returns (name, (train, test), config) triples. Pipeline settings vary
    per dataset: the tone pair needs windows of at least 16 samples and
    the block-order data is only order-blind for unigrams at window
    length 8.
    """
    base = WeaselConfig(word_lengths=(6,))
    return [
        ("shift_invariance", synthetic.shift_invariance(100, 100), base),
        ("fine_frequency", synthetic.fine_frequency(), replace(base, w_min=16)),
        ("bigram_order", synthetic.bigram_order(), replace(base, w_max=8)),
        ("multi_scale", synthetic.multi_scale(), base),
        ("pure_noise", synthetic.pure_noise(), base),
    ]
