"""Shared helpers for the scenario-suite tests."""

from typing import Any, Dict, Optional, Sequence, Tuple

import pytest

from repro.scenarios import (
    InclusionGenerator,
    InclusionScenario,
    REFERENCE,
    VARIANT_NAMES,
    build_variants,
)


def build_loaded(scenario: InclusionScenario, seed: int,
                 names: Sequence[str] = (REFERENCE, *VARIANT_NAMES),
                 data_dirs: Optional[Dict[str, str]] = None,
                 ) -> Tuple[Dict[str, Any], InclusionGenerator]:
    """Build the requested variants (the reference model first by default)
    and load identical seeded data into each."""
    variants = build_variants(scenario, names=names, data_dirs=data_dirs)
    generator = InclusionGenerator(scenario, seed=seed)
    try:
        for variant in variants.values():
            generator.load(variant.connection)
    except BaseException:
        for variant in variants.values():
            variant.close()
        raise
    return variants, generator


@pytest.fixture
def close_all():
    """Collects variants and closes them at teardown even on failure."""
    opened = []
    yield opened.append
    for variant in opened:
        variant.close()
