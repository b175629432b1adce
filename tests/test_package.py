"""The package's public names: one list per module, exported as they are."""

import importlib
import pkgutil
from collections import Counter

import affine_transport

PUBLIC = {
    "AffineMap", "AffineTransportError", "BadFraction", "BadSpec",
    "DegenerateInput", "DimensionMismatch", "DomainSpec", "FitMeta",
    "GaussianModel", "IndefiniteMatrix", "MAX_EXACT", "MalformedCsv",
    "MalformedModel", "MissingManifest", "NonFinite", "NotSymmetric",
    "PairingMismatch", "SingularMatrix", "TooFewSamples", "TooLarge",
    "TransferModel", "TransferReport", "TransitionDataset", "__version__",
    "affinity_score", "apply", "at_map", "check_paired", "dataset_fingerprint",
    "empirical_w2", "estimate_moments", "evaluate", "evaluate_pointwise", "fit",
    "gaussian_ot_map", "gaussian_w2", "gelbrich_gap_bound", "gen_linear",
    "gen_puck", "load_csv", "load_model", "normal_approx_bound",
    "pointwise_error", "procrustes", "rng_stream", "save_dataset", "save_model",
    "spd_sqrt", "split", "subset",
}


def test_public_names_are_the_modules_all_lists():
    names = affine_transport.__all__
    assert len(names) == len(set(names)) == 50
    assert set(names) == PUBLIC
    for name in names:
        assert hasattr(affine_transport, name), name
    # the command line front end is not part of the library API
    modules = [importlib.import_module(f"affine_transport.{m.name}")
               for m in pkgutil.iter_modules(affine_transport.__path__) if m.name != "cli"]
    declared = Counter(name for module in modules for name in module.__all__)
    assert set(declared) <= set(names)
    assert [name for name, count in declared.items() if count > 1] == []
