"""kirchflow: implicit solver for fourth-order unsaturated flow in
Kirchhoff-transformed variables."""

__version__ = "0.1.0"
