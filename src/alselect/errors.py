"""Exception types shared across the package: one per CLI exit code that
is not a plain ValueError (exit 4)."""


class ConfigError(ValueError):
    """A config file, flag or synth spec is invalid, or a run config cannot
    be carried out on its dataset (exit 2 at the CLI)."""


class DataFormatError(ValueError):
    """An input file cannot be read or is malformed (exit 3 at the CLI)."""


class VacuousBoundError(ValueError):
    """The closed-form hitting bound gives no guarantee (p_s <= 0).

    Carries the intermediate quantities so callers can report why the
    bound degenerated and pick a larger k or chi.
    """

    def __init__(self, eta, zeta, p_s):
        self.eta = eta
        self.zeta = zeta
        self.p_s = p_s
        super().__init__(
            f"vacuous bound: p_s={p_s:.6f} <= 0 (eta={eta:.6f}, zeta={zeta:.6f}); "
            "increase the class count k or the smoothing floor chi"
        )
