"""Exception types shared across the engine, and the cuts for the names they quote."""

MAX_LISTED = 10  # the most names a finding lists; the rest are counted


def _cut(text: str) -> str:
    """`text` cut after 80 characters, the cut marked: a finding stays short."""
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def _quote(value) -> str:
    """`value`'s repr for a finding, cut as `_cut` cuts it."""
    return _cut(repr(value))


def _listed(names: list, cut=_cut, sep=", ") -> str:
    """The first MAX_LISTED of `names`, each cut by `cut`, joined by `sep`;
    the count of the rest marks a longer list."""
    listed = sep.join(map(cut, names[:MAX_LISTED]))
    if len(names) > MAX_LISTED:
        listed += f"{sep}... ({len(names) - MAX_LISTED} more)"
    return listed


class DomainError(ValueError):
    """Input lies outside a value function's domain."""


class DimensionError(ValueError):
    """Vector or matrix shape is inconsistent with the declared layout."""


class MissingScopeError(ValueError):
    """An aggregation assignment does not cover every scope in the model."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"assignment missing scopes: {_listed(self.missing)}")


class RankDeficiencyError(ValueError):
    """Design matrix is rank deficient; `columns` names the dependent columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            f"design matrix is rank deficient; dependent columns: {_listed(self.columns)}"
        )


class UnknownNodeError(ValueError):
    """A graph operation referenced a node name that is not in the graph."""


class StageBindingError(ValueError):
    """Fact values may only bind to inputs, activities, or outputs stages."""


class ScenarioError(ValueError):
    """Scenario document failed validation; the message names the field."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))
