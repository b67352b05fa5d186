import numpy as np
import pytest

from segloss import ValidationError, ell_loss, loss_entry, loss_names, resolve_params, wce

# The public parameter schema: the keys a run config's "params" takes and
# each eval report row's "params", in order, with their defaults. The
# registry reads it from the kernels' signatures, so renaming a kernel's
# keyword renames a config key and a report field; this table catches that.
SCHEMA = {
    "ce": ("distribution", {}),
    "wce": ("distribution", {"weights": None}),
    "topk": ("distribution", {"t": 0.5}),
    "focal": ("distribution", {"gamma": 2.0}),
    "dpce": ("distribution", {}),
    "ss": ("region", {"w": 0.5}),
    "dice": ("region", {}),
    "iou": ("region", {}),
    "tversky": ("region", {"alpha": 0.3, "beta": 0.7}),
    "generalized_dice": ("region", {}),
    "focal_tversky": ("region", {"alpha": 0.3, "beta": 0.7, "gamma": 4.0 / 3.0}),
    "asymmetric": ("region", {"beta": 1.5}),
    "penalty_gd": ("region", {"k": 2.5}),
    "boundary": ("boundary", {}),
    "hd": ("boundary", {}),
    "combo": ("compound", {"alpha": 0.5, "beta": 0.5}),
    "ell": (
        "compound",
        {"w_dice": 0.8, "w_ce": 0.2, "gamma_dice": 0.3, "gamma_ce": 0.3, "class_weights": None},
    ),
}


def test_parameter_schema_is_pinned():
    got = [(n, loss_entry(n).family, list(resolve_params(n).items())) for n in loss_names()]
    assert got == [(n, family, list(p.items())) for n, (family, p) in SCHEMA.items()]


@pytest.mark.parametrize(
    "bad",
    [[1.0], [1.0, 1.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [1.0, np.inf]],
    ids=["short", "long", "negative", "nan", "inf"],
)
def test_wce_and_ell_reject_the_same_weight_vectors(f1, bad):
    g, s = f1
    with pytest.raises(ValidationError) as from_wce:
        wce(g, s, bad)
    with pytest.raises(ValidationError) as from_ell:
        ell_loss(g, s, class_weights=bad)
    assert str(from_wce.value) == str(from_ell.value).replace("class_weights", "weights")
