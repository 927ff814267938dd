"""HiPress: the top-level compression-aware training framework facade."""

from ..adaptive.accordion import AccordionController, AdaptiveAlgorithm
from .framework import Profile, TrainingJob

__all__ = ["AccordionController", "AdaptiveAlgorithm", "Profile",
           "TrainingJob"]
