"""The experiment config of the `figure` and `sweep` commands, and its text layout.

``ExperimentConfig`` is the package's one dataclass: the benchmark copies it
with ``dataclasses.replace``.  Only those two commands, and `verify` when it
reads a ``--config`` file, import this module, so that `tune` and a plain
`verify` load neither it nor ``dataclasses``.  The text is read through
``configparser`` and written straight from the layout, in the bytes that
``ConfigParser.write`` gives, so that a command that reads no ``--config``
file does not load ``configparser``.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .design import AdrcDesign, PidParams

if TYPE_CHECKING:
    from .analysis import PlantModel


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; round-trips losslessly through text."""

    order: int = 1
    ts: float = 1.0
    g: float = 10.0
    b0: float = 1.0
    plant_k: float = 1.0
    plant_t: float = 1.0
    plant_d: float = 1.0
    k_sweep: tuple[float, ...] | None = None
    t_sweep: tuple[float, ...] | None = None
    omega_min: float = 1e-2
    omega_max: float = 1e4
    omega_points: int = 600
    out_dir: str = "out"
    compare_pid: tuple[float, float, float, float, float] | None = None

    def validate(self) -> None:
        """Build every object the config describes, so that bad input fails
        here, before any work, with the message of the type that owns the rule."""
        from .analysis import _check_positive, sweep_plants
        from .tf import log_grid

        AdrcDesign(self.order, self.ts, self.g, self.b0)
        # the plant of the order the command runs; its damping D is refused at order 1 too
        plant = self.plant(self.order)
        _check_positive("D", self.plant_d)
        for parameter, field in SWEEP_FIELDS.items():
            if getattr(self, field) is not None:
                sweep_plants(plant, parameter, getattr(self, field))
        log_grid(self.omega_min, self.omega_max, self.omega_points)
        if self.compare_pid is not None:
            PidParams(*self.compare_pid)
        # the config echo could not say it: ConfigParser refuses a bare % and reads %% back as %
        if "%" in self.out_dir:
            raise ValueError(f"output dir (--out, [output] dir) must not hold a %, got {self.out_dir!r}")

    def plant(self, order: int) -> PlantModel:
        """The plant of the given order; D is the config's at order 2 alone."""
        from .analysis import PlantModel

        return PlantModel(order=order, K=self.plant_k, T=self.plant_t, D=self.plant_d if order == 2 else None)

    def with_flags(self, flags: dict) -> ExperimentConfig:
        """A copy with each field that flags gives a value other than None, parsed as its config key is."""
        overrides = {
            field: parse(flags[field])
            for keys in _CONFIG_FIELDS.values()
            for field, parse, _ in keys.values()
            if flags.get(field) is not None
        }
        return dataclasses.replace(self, **overrides)

    def to_text(self) -> str:
        """The text of ConfigParser.write for the layout: each section that has a field other
        than None, in order, as its [section] line, one "key = value" line per such field, and
        an empty line."""
        lines = []
        for section, keys in _CONFIG_FIELDS.items():
            written = [
                f"{key} = {_written(fmt(getattr(self, field)))}\n"
                for key, (field, _, fmt) in keys.items()
                if getattr(self, field) is not None
            ]
            if written:
                lines += [f"[{section}]\n", *written, "\n"]
        return "".join(lines)

    @classmethod
    def from_text(cls, text: str) -> ExperimentConfig:
        """Parse the text ``to_text`` writes; unknown sections and keys are errors."""
        import configparser

        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"malformed config: {exc}") from exc
        if cp.defaults():
            raise ValueError(f"unknown config section [{cp.default_section}]")
        kwargs = {}
        for section in cp.sections():
            fields = _CONFIG_FIELDS.get(section)
            if fields is None:
                raise ValueError(f"unknown config section [{section}]")
            for key, value in cp[section].items():
                if key not in fields:
                    raise ValueError(f"unknown config key {key!r} in section [{section}]")
                field, parse, _ = fields[key]
                kwargs[field] = parse(value)
        return cls(**kwargs)


# a %-reference that ConfigParser's interpolation reads
_INTERPOLATION = re.compile(r"%\(([^)]+)\)s")


def _written(value: str) -> str:
    """A value as ConfigParser.write gives it, each line break followed by a tab; a value
    with a % that is neither %% nor a %(name)s reference is refused as ConfigParser refuses it."""
    rest = _INTERPOLATION.sub("", value.replace("%%", ""))
    if "%" in rest:
        raise ValueError(f"invalid interpolation syntax in {value!r} at position {rest.find('%')}")
    return value.replace("\n", "\n\t")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parse_floats(text: str) -> tuple[float, ...]:
    """The values of a comma list; an empty text has none, and an empty item is refused."""
    if not text.strip():
        return ()
    items = [part.strip() for part in text.split(",")]
    if "" in items:
        raise ValueError(f"the comma list {text!r} has an empty item")
    return tuple(map(float, items))


def _parse_pid(text: str) -> tuple[float, ...]:
    values = _parse_floats(text)
    if len(values) != 5:
        raise ValueError(f"compare pid needs exactly 5 values kp,ki,kd,Tf,b, got {len(values)}")
    return values


def _fmt_floats(values: tuple[float, ...]) -> str:
    return ",".join(_fmt(v) for v in values)


# The one statement of the config layout: section -> key -> (ExperimentConfig
# field, parser, formatter).  ``to_text`` writes it in this order and leaves
# out a field that is None, ``from_text`` reads it, and a command-line flag
# sets the field of the same name through the same parser (``with_flags``).
_CONFIG_FIELDS = {
    "tuning": {
        "order": ("order", int, str),
        "ts": ("ts", float, _fmt),
        "g": ("g", float, _fmt),
        "b0": ("b0", float, _fmt),
    },
    "plant": {"k": ("plant_k", float, _fmt), "t": ("plant_t", float, _fmt), "d": ("plant_d", float, _fmt)},
    "sweep": {
        "k_values": ("k_sweep", _parse_floats, _fmt_floats),
        "t_values": ("t_sweep", _parse_floats, _fmt_floats),
    },
    "frequency": {
        "omega_min": ("omega_min", float, _fmt),
        "omega_max": ("omega_max", float, _fmt),
        "points": ("omega_points", int, str),
    },
    "output": {"dir": ("out_dir", str, str)},
    "compare": {"pid": ("compare_pid", _parse_pid, _fmt_floats)},
}

# swept plant parameter -> the ExperimentConfig field holding its values
SWEEP_FIELDS = {"K": "k_sweep", "T": "t_sweep"}
