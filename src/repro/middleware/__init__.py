"""Mobile middleware component (paper §5): WAP, i-mode, content adaptation."""

from .adaptation import (
    CARD_TEXT_LIMIT,
    extract_links,
    extract_title,
    html_to_wml,
    personalize,
    strip_tags,
)
from .base import (
    FrameReader,
    RequestBatcher,
    decode_obj,
    encode_obj,
    frame_reply,
    MiddlewareResponse,
    MiddlewareSession,
    RequestTimeout,
    encode_frame,
    split_url,
)
from .direct import DirectHTTPSession
from .chtml import ALLOWED_TAGS, CHTML_CONTENT_TYPE, is_compact, to_chtml
from .imode import IMODE_PORT, IModeCenter, IModeSession
from .palm import (
    CLIPPING_CONTENT_TYPE,
    CLIPPING_PORT,
    PalmSession,
    WebClippingProxy,
)
from .wap import WAPGateway, WAPSession, WSP_PORT, WTLS_PORT
from .wml import (
    WML_CONTENT_TYPE,
    WMLC_CONTENT_TYPE,
    WMLCard,
    WMLDocument,
    WMLError,
    decode_wmlc,
    encode_wmlc,
    parse_wml,
)

__all__ = [
    "CARD_TEXT_LIMIT",
    "extract_links",
    "extract_title",
    "html_to_wml",
    "personalize",
    "strip_tags",
    "RequestBatcher",
    "frame_reply",
    "FrameReader",
    "MiddlewareResponse",
    "MiddlewareSession",
    "RequestTimeout",
    "TABLE3_PROPERTIES",
    "encode_frame",
    "encode_obj",
    "decode_obj",
    "split_url",
    "ALLOWED_TAGS",
    "CHTML_CONTENT_TYPE",
    "is_compact",
    "to_chtml",
    "DirectHTTPSession",
    "IMODE_PORT",
    "IModeCenter",
    "IModeSession",
    "CLIPPING_CONTENT_TYPE",
    "CLIPPING_PORT",
    "PalmSession",
    "WebClippingProxy",
    "WAPGateway",
    "WAPSession",
    "WSP_PORT",
    "WTLS_PORT",
    "WML_CONTENT_TYPE",
    "WMLC_CONTENT_TYPE",
    "WMLCard",
    "WMLDocument",
    "WMLError",
    "decode_wmlc",
    "encode_wmlc",
    "parse_wml",
]

# Table 3's middleware properties, as the paper states them: markup
# language served to the device, session model, and the per-response
# payload ceiling (None = unlimited).  The static model checker
# cross-validates built gateways and sessions against this registry.
TABLE3_PROPERTIES = {
    "WAP": {"markup": "WML", "session_model": "gateway-session",
            "payload_limit": None},
    "i-mode": {"markup": "cHTML", "session_model": "always-on",
               "payload_limit": None},
    "Palm": {"markup": "web-clipping", "session_model": "request-response",
             "payload_limit": 1024},
}
