"""Fingerprint template extraction: segmentation, thinning, minutiae."""

from .enhance import enhance, gabor_enhance, normalize, orientation_field, ridge_wavelength
from .image import BinaryImage, GrayImage, read_pgm, write_pgm
from .minutiae import (
    DEFAULT_BORDER_MARGIN,
    DEFAULT_MIN_DISTANCE,
    Minutia,
    MinutiaKind,
    Template,
    TemplateAlgorithm,
    extract_template,
)
from .segmentation import BinarizeMethod, binarize, otsu_threshold
from .thinning import thin

__all__ = [
    "BinaryImage",
    "BinarizeMethod",
    "DEFAULT_BORDER_MARGIN",
    "DEFAULT_MIN_DISTANCE",
    "GrayImage",
    "Minutia",
    "MinutiaKind",
    "Template",
    "TemplateAlgorithm",
    "binarize",
    "enhance",
    "extract_template",
    "gabor_enhance",
    "normalize",
    "orientation_field",
    "otsu_threshold",
    "read_pgm",
    "ridge_wavelength",
    "thin",
    "write_pgm",
]
