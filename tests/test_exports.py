import specmm
from specmm import classic, domains, embed, files, saddle, symmat

# the public names, pinned: one that comes back or one that goes must be
# announced here
EXPORTS = {
    "__version__",
    # symmat
    "lambda_min",
    # domains
    "SpectraplexPoint", "SimplexPoint", "InstanceSet", "lambda_min_by_bisection",
    "best_response_index", "weighted_combination", "sample_spectraplex", "sample_simplex",
    # saddle
    "SaddleConfig", "SaddleCertificate", "upper_value", "lower_value", "solve_minimax",
    "solve_maximin",
    # embed
    "SdpEmbedding", "PrimalLift", "DualLift", "ExtractedDual", "DualInfeasibleError",
    "DegenerateMultiplierError", "build_embedding", "lift_primal", "lift_dual",
    "extract_dual", "interior_primal_point", "interior_dual_point", "weak_duality_check",
    "sdpa_text",
    # classic
    "VectorGame", "DiagonalReductionReport", "embed_diagonal", "classic_value_exact",
    "verify_diagonal_reduction",
    # files
    "InstanceFormatError", "parse_instance", "load_instance", "Report",
    "report_from_certificate", "report_to_json", "report_from_json", "report_to_text",
}


def test_each_public_name_is_exported_once_from_its_module():
    # the package lists no name itself: __all__ is the modules' lists in
    # import order, and each name is its module's object
    modules = (symmat, domains, saddle, embed, classic, files)
    names = specmm.__all__
    assert len(set(names)) == len(names)
    assert names == ["__version__", *(name for mod in modules for name in mod.__all__)]
    assert set(names) == EXPORTS
    assert isinstance(specmm.__version__, str)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(specmm, name) is getattr(mod, name), name
