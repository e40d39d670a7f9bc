"""Exception hierarchy shared by all atomcat modules."""


class AtomcatError(Exception):
    """Base class; carries an error code and a context dict for reporting."""

    code = "error"

    def __init__(self, message="", **context):
        super().__init__(message or self.code)
        self.context = context

    def to_json(self):
        return {"error": self.code, "context": self.context}


# -- poset / topology -------------------------------------------------------

class CycleDetected(AtomcatError):
    code = "cycle_detected"


class UnknownElement(AtomcatError):
    code = "unknown_element"


class NotKolmogorov(AtomcatError):
    code = "not_kolmogorov"


class InvalidTopology(AtomcatError):
    code = "invalid_topology"


# -- quivers ----------------------------------------------------------------

class DuplicateArrow(AtomcatError):
    code = "duplicate_arrow"


class UnknownVertex(AtomcatError):
    code = "unknown_vertex"


class UnknownColor(AtomcatError):
    code = "unknown_color"


class ColorClash(AtomcatError):
    """A combinator would have to mint a color that already exists."""

    code = "color_clash"


class NotTargetClosed(AtomcatError):
    code = "not_target_closed"


class MissingBlock(AtomcatError):
    code = "missing_block"


class DepthTooSmall(AtomcatError):
    code = "depth_too_small"


class WindowTooSmall(AtomcatError):
    code = "window_too_small"


class EmptyRange(AtomcatError):
    code = "empty_range"


class UnknownPreset(AtomcatError):
    code = "unknown_preset"


# -- modules ----------------------------------------------------------------

class NotNested(AtomcatError):
    code = "not_nested"


class ZeroModule(AtomcatError):
    code = "zero_module"


class BudgetExceeded(AtomcatError):
    """Enumeration hit its budget.  `partial` holds whatever was collected."""

    code = "budget_exceeded"

    def __init__(self, message="", partial=None, **context):
        super().__init__(message, **context)
        self.partial = partial


# -- atoms ------------------------------------------------------------------

class NotMonoform(AtomcatError):
    code = "not_monoform"


class LabelCollision(AtomcatError):
    """Two different canonical forms digest to the same atom label."""

    code = "label_collision"


class NotFinite(AtomcatError):
    code = "not_finite"
