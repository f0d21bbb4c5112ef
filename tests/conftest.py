import numpy as np
import pytest

from downscale import AggregationUnit, CoarseTable, FeatureSchema, IndividualTable


def make_schemas(spec):
    """Build schemas from shorthand tuples.

    ("name", n_classes, batch) for categorical, ("name", None, batch) for
    continuous; batch 0 features are core.
    """
    out = []
    for name, n_classes, batch in spec:
        if n_classes is None:
            out.append(FeatureSchema(name, "continuous", (), batch))
        else:
            classes = tuple(f"{name}_c{i}" for i in range(n_classes))
            out.append(FeatureSchema(name, "categorical", classes, batch))
    return out


def stack_units(units):
    """A CoarseTable over a list of AggregationUnits, each feature stacked over the units."""
    names = units[0].values if units else ()
    return CoarseTable([u.unit_id for u in units], [u.population for u in units],
                       {name: np.array([u.values[name] for u in units], dtype=float) for name in names})


def stack_blocks(blocks):
    """An IndividualTable over a list of UnitBlocks, each feature and ``person_index`` stacked over the blocks."""
    names = blocks[0].columns if blocks else ()
    return IndividualTable([b.unit_id for b in blocks], [b.size for b in blocks],
                           {name: np.concatenate([b.columns[name] for b in blocks]) for name in names},
                           np.concatenate([b.person_index for b in blocks]) if blocks else None)


def make_units(schemas, populations, rng=None):
    """Random valid units over the given schemas, with editable ``values`` dicts."""
    rng = rng or np.random.default_rng(0)
    units = []
    for i, pop in enumerate(populations):
        values = {}
        for sc in schemas:
            if sc.is_categorical:
                values[sc.name] = rng.dirichlet(np.full(sc.n_classes, 3.0))
            else:
                values[sc.name] = float(rng.uniform(0.5, 10.0))
        units.append(AggregationUnit(f"u{i:04d}", int(pop), values))
    return units


def make_coarse(schemas, populations, rng=None):
    """Random valid coarse table over the given schemas."""
    return stack_units(make_units(schemas, populations, rng))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
