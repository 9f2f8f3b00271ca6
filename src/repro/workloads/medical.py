"""Hospital-records workload.

The paper's introduction lists hospitals among the collectors of personal
data.  This generator produces admission events whose diagnosis is degradable
along the diagnosis generalization tree (diagnosis → disease group →
specialty → suppressed) while the patient identity stays stable, illustrating
the paper's argument that degradation — unlike anonymization — keeps
user-oriented services possible (the patient's record remains linkable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.domains import build_diagnosis_tree
from ..core.generalization import GeneralizationTree
from .distributions import Distributions

_WARDS = ("A1", "A2", "B1", "B2", "C1", "ICU", "ER")


@dataclass
class AdmissionEvent:
    """One generated hospital admission."""

    patient_id: int
    diagnosis: str
    disease_group: str
    specialty: str
    ward: str
    duration_days: int
    timestamp: float

    def as_row(self) -> Dict[str, object]:
        return {
            "id": None,
            "patient_id": self.patient_id,
            "diagnosis": self.diagnosis,
            "ward": self.ward,
            "duration_days": self.duration_days,
        }


class AdmissionGenerator:
    """Deterministic generator of hospital admission events."""

    def __init__(self, num_patients: int = 120, seed: int = 23,
                 tree: Optional[GeneralizationTree] = None) -> None:
        self.tree = tree or build_diagnosis_tree()
        self.dist = Distributions(seed)
        self.num_patients = num_patients
        self._diagnoses = self.tree.values_at_level(0)

    def event_at(self, timestamp: float) -> AdmissionEvent:
        diagnosis = self.dist.zipf_choice(self._diagnoses, 0.7)
        return AdmissionEvent(
            patient_id=self.dist.uniform_int(1, self.num_patients),
            diagnosis=diagnosis,
            disease_group=self.tree.generalize(diagnosis, 1),
            specialty=self.tree.generalize(diagnosis, 2),
            ward=self.dist.uniform_choice(_WARDS),
            duration_days=self.dist.gaussian_int(4, 3, minimum=1, maximum=60),
            timestamp=timestamp,
        )

    def events(self, count: int, interval: float = 3600.0,
               start: float = 0.0) -> List[AdmissionEvent]:
        return [self.event_at(start + index * interval) for index in range(count)]

    def sample_diagnosis(self) -> str:
        return self.dist.uniform_choice(self._diagnoses)


def admissions_table_sql(policy_name: str = "diagnosis_lcp") -> str:
    """DDL of the admissions table used by the hospital example."""
    return (
        "CREATE TABLE admission ("
        "  id INT PRIMARY KEY,"
        "  patient_id INT,"
        f"  diagnosis TEXT DEGRADABLE DOMAIN diagnosis POLICY {policy_name},"
        "  ward TEXT,"
        "  duration_days INT"
        ")"
    )


__all__ = ["AdmissionEvent", "AdmissionGenerator", "admissions_table_sql"]
