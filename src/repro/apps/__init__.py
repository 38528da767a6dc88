"""Mobile commerce applications component (paper §3, Table 1).

All eight application categories from Table 1, each a complete
server-side (CGI programs + schema) plus client flows runnable over any
middleware/bearer combination.
"""

from .base import Application, html_page
from .commerce import CommerceApp
from .education import EducationApp
from .entertainment import EntertainmentApp
from .erp import ERPApp
from .healthcare import HealthcareApp
from .inventory import InventoryApp
from .traffic import TrafficApp
from .travel import TravelApp

ALL_CATEGORIES = {
    "commerce": CommerceApp,
    "education": EducationApp,
    "erp": ERPApp,
    "entertainment": EntertainmentApp,
    "healthcare": HealthcareApp,
    "inventory": InventoryApp,
    "traffic": TrafficApp,
    "travel": TravelApp,
}

__all__ = [
    "Application",
    "html_page",
    "CommerceApp",
    "EducationApp",
    "EntertainmentApp",
    "ERPApp",
    "HealthcareApp",
    "InventoryApp",
    "TrafficApp",
    "TravelApp",
    "ALL_CATEGORIES",
]
