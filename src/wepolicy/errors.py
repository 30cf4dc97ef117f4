"""Exception types shared across the engine, and the cut for the names they quote."""


def _cut(text: str) -> str:
    """`text` cut after 80 characters, the cut marked: a finding stays short."""
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def _quote(value) -> str:
    """`value`'s repr for a finding, cut as `_cut` cuts it."""
    return _cut(repr(value))


class DomainError(ValueError):
    """Input lies outside a value function's domain."""


class DimensionError(ValueError):
    """Vector or matrix shape is inconsistent with the declared layout."""


class MissingScopeError(ValueError):
    """An aggregation assignment does not cover every scope in the model."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"assignment missing scopes: {', '.join(map(_cut, self.missing))}")


class RankDeficiencyError(ValueError):
    """Design matrix is rank deficient; `columns` names the dependent columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(map(_cut, self.columns))
        )


class UnknownNodeError(ValueError):
    """A graph operation referenced a node name that is not in the graph."""


class StageBindingError(ValueError):
    """Fact values may only bind to inputs, activities, or outputs stages."""


class ScenarioError(ValueError):
    """Scenario document failed validation; the message names the field."""

    def __init__(self, findings):
        if isinstance(findings, str):
            findings = [findings]
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))
