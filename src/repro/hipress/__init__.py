"""HiPress: the top-level compression-aware training framework facade."""

from ..adaptive.accordion import AccordionController
from .framework import Profile, TrainingJob

__all__ = ["AccordionController", "Profile", "TrainingJob"]
