"""Tool configuration.

One INI file, populated once, holds the depot connection settings:

    [depot]
    base_url = http://localhost:8080
    client_key = ...
    client_secret = ...
    token = ...
    token_secret = ...

    [general]
    default_category = Computational Physics

Default location is ~/.curator, overridable by the CURATOR_CONFIG
environment variable or a command-line flag (flag wins).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from pathlib import Path

from .client import ClientConfig
from .errors import IoError, ParseError, as_io_error

CONFIG_ENV_VAR = "CURATOR_CONFIG"
DEFAULT_CONFIG_NAME = ".curator"
DEFAULT_CATEGORY = "Computational Physics"

# ClientConfig's fields, in order, each a key [depot] must set
_CREDENTIAL_KEYS = ("base_url", "client_key", "client_secret", "token", "token_secret")


@dataclass
class PublisherConfig:
    """Parsed configuration; ``depot`` is None when no [depot] section exists."""

    depot: ClientConfig | None
    default_category: str = DEFAULT_CATEGORY


def resolve_config_path(flag_value=None) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get(CONFIG_ENV_VAR)
    if env_value:
        return Path(env_value)
    return Path.home() / DEFAULT_CONFIG_NAME


def load_config(path) -> PublisherConfig:
    path = Path(path)
    if not path.is_file():
        raise IoError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with as_io_error("cannot read", path):
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"bad config {path}: {exc}") from exc

    depot = None
    if parser.has_section("depot"):
        values = {key: parser.get("depot", key, fallback="").strip() for key in _CREDENTIAL_KEYS}
        missing = [key for key, value in values.items() if not value]
        if missing:
            raise ParseError(f"{path}: [depot] is missing {', '.join(missing)}")
        depot = ClientConfig(**values)

    category = parser.get("general", "default_category", fallback="").strip()
    return PublisherConfig(depot=depot, default_category=category or DEFAULT_CATEGORY)
