"""Application framework: what a Table 1 application category provides.

Every application has a *server side* (CGI programs + database schema
installed into a built system's host tier) and *client flows*
(generator functions run by the :class:`~repro.core.transaction.TransactionEngine`
through a station's middleware session).  The same application object
installs identically into an EC or MC system — requirement 5 again.
"""

from __future__ import annotations

from typing import Any, Optional

from ..db import execute

__all__ = ["Application", "html_page"]


class Application:
    """Base class for the eight Table 1 categories."""

    category = "abstract"
    clients = ""  # the Table 1 "Clients" column

    def __init__(self):
        self.system = None
        self.personalization_used = False

    # -- install ------------------------------------------------------------
    def install(self, system) -> None:
        """Create schema, seed data, mount programs.  Idempotent per system."""
        self.system = system
        self.create_schema(system.host.db_server.database)
        self.seed_data(system.host.db_server.database)
        self.mount_programs(system.host.web_server)

    def create_schema(self, database) -> None:
        """Synchronous provisioning-time DDL against the host database."""

    def seed_data(self, database) -> None:
        """Synchronous provisioning-time seed rows."""

    def mount_programs(self, server) -> None:
        """Mount CGI programs on the host web server."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def sql(database, statement: str, params: tuple = ()):
        return execute(database, statement, params)

    def mark_personalized(self) -> None:
        self.personalization_used = True


def html_page(title: str, body_html: str) -> str:
    return (f"<html><head><title>{title}</title></head>"
            f"<body>{body_html}</body></html>")
