"""Run configuration: one flat key = value text format for everything.

Lines look like ``feature_dim = 16``; '#' starts a comment, blank lines are
skipped.  Unknown keys and keys given twice are hard errors so a typo cannot
silently train the wrong model.  ``border_margin`` is the only
optional-semantics key: absent means "use the disparity search range".
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .losses import LossWeights
from .network import NetConfig
from .training import TrainConfig


def _keys(section: str, cls, skip=()) -> dict:
    """``key -> (RunConfig section, parser)``; a key parses as its default's type."""
    return {f.name: (section, type(f.default)) for f in fields(cls) if f.name not in skip}


# w_smooth has no key: the trainer schedules it (smooth_scratch, smooth_converged).
_KEYS = {**_keys("net", NetConfig), **_keys("train", TrainConfig),
         **_keys("loss", LossWeights, skip=("w_smooth",))}


@dataclass
class RunConfig:
    net: NetConfig
    train: TrainConfig
    loss: LossWeights
    border_margin: int | None = None

    def __post_init__(self):
        if self.border_margin is not None and self.border_margin < 0:
            raise ValueError(f"border_margin must be >= 0, got {self.border_margin}")

    @classmethod
    def default(cls) -> "RunConfig":
        return cls(net=NetConfig(), train=TrainConfig(), loss=LossWeights())

    @classmethod
    def toy(cls) -> "RunConfig":
        """Desk-scale preset: small tower, 16 px search range, 64x128 crops."""
        return cls(
            net=NetConfig.toy(),
            train=TrainConfig(crop_height=64, crop_width=128),
            loss=LossWeights(),
        )


def parse_run_config(text: str, base: RunConfig | None = None, source: str = "config") -> RunConfig:
    """Apply ``key = value`` lines on top of ``base`` (default: defaults)."""
    cfg = base or RunConfig.default()
    kw = {section: {} for section, _ in _KEYS.values()}
    margin = cfg.border_margin
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key in seen:
            raise ValueError(f"{source}:{lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            if key == "border_margin":
                margin = int(value)
            else:
                section, parse = _KEYS[key]
                kw[section][key] = parse(value)
        except KeyError:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}") from None
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad value {value!r} for {key!r}") from None
    return replace(cfg, **{section: replace(getattr(cfg, section), **kw[section]) for section in kw},
                   border_margin=margin)


def load_run_config(path, base: RunConfig | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    return parse_run_config(path.read_text(), base, source=str(path))


def format_run_config(cfg: RunConfig) -> str:
    """Serialise a config so a run directory records what actually ran."""
    lines = [f"{key} = {getattr(getattr(cfg, section), key)}" for key, (section, _) in _KEYS.items()]
    if cfg.border_margin is not None:
        lines.append(f"border_margin = {cfg.border_margin}")
    return "\n".join(lines) + "\n"
