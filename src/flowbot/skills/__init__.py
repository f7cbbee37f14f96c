"""Skill registry, dispatch and the slot-filling manager.

A public name is imported from its submodule on first use.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "builtin": (
        "CapabilityError", "LowLevelContext", "SkillContext", "demo_descriptors",
        "register_demo_skills",
    ),
    "manager": (
        "Action", "Execute", "ManagerConfig", "Prompt", "Reject", "RejectReason", "SkillManager",
    ),
    "registry": ("SkillRegistry",),
    "types": (
        "DuplicateSkillError", "Interpretation", "MissingEntitiesError", "SkillDescriptor",
        "SkillError", "SkillLevel", "SkillNotFoundError", "SkillSession",
    ),
})
