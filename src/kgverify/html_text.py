"""Paragraph-oriented text extraction from HTML using the stdlib parser.

Only the text content of paragraph elements is extracted; headings, lists and
table cells are deliberately ignored. For structured pages (Wikipedia) the
captured inner markup of each element is kept so citation markers can be read
back out of individual paragraphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import escape
from html.parser import HTMLParser

from .model import normalize_label

# Elements that never have a closing tag (the report stylesheet's output too).
VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}
_SKIP_CONTENT = {"script", "style", "noscript"}
# Elements that cannot nest: a new start tag implicitly closes the open one.
_AUTO_CLOSE = {"p", "li"}


@dataclass(frozen=True)
class CapturedElement:
    """One captured element: collapsed text plus reconstructed inner markup."""

    text: str
    html: str


def _render_start_tag(tag: str, attrs: list[tuple[str, str | None]]) -> str:
    parts = [tag]
    for name, value in attrs:
        if value is None:
            parts.append(name)
        else:
            parts.append(f'{name}="{escape(value, quote=True)}"')
    return "<" + " ".join(parts) + ">"


class _ElementCapture(HTMLParser):
    """Collects text and inner markup of every matching element."""

    def __init__(self, tag: str, class_filter: str | None = None):
        super().__init__(convert_charrefs=True)
        self._tag = tag
        self._class_filter = class_filter
        self._depth = 0
        self._skip_depth = 0
        self._text: list[str] = []
        self._markup: list[str] = []
        self.captured: list[CapturedElement] = []

    def _matches(self, tag: str, attrs) -> bool:
        if tag != self._tag:
            return False
        if self._class_filter is None:
            return True
        classes = (dict(attrs).get("class") or "").split()
        return self._class_filter in classes

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_CONTENT:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if self._depth > 0:
            if tag == self._tag:
                if tag in _AUTO_CLOSE:
                    # a fresh <p>/<li> implicitly closes the open one
                    self._finalize()
                    if self._matches(tag, attrs):
                        self._depth = 1
                    return
                self._depth += 1
            if tag not in VOID_TAGS:
                self._markup.append(_render_start_tag(tag, attrs))
            else:
                self.handle_startendtag(tag, attrs)
            return
        if self._matches(tag, attrs):
            self._depth = 1
            self._text = []
            self._markup = []

    def handle_startendtag(self, tag, attrs):
        if self._skip_depth or self._depth == 0:
            return
        self._markup.append(_render_start_tag(tag, attrs)[:-1] + "/>")
        if tag == "br":  # a line break separates the words on either side
            self._text.append(" ")

    def _finalize(self) -> None:
        self.captured.append(
            CapturedElement(
                text=normalize_label("".join(self._text)),
                html="".join(self._markup),
            )
        )
        self._depth = 0
        self._text = []
        self._markup = []

    def handle_endtag(self, tag):
        if tag in _SKIP_CONTENT:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth or self._depth == 0:
            return
        if tag == self._tag:
            self._depth -= 1
            if self._depth == 0:
                self._finalize()
                return
        if tag not in VOID_TAGS:
            self._markup.append(f"</{tag}>")

    def handle_data(self, data):
        if self._skip_depth or self._depth == 0:
            return
        self._text.append(data)
        self._markup.append(escape(data))

    def close(self):
        super().close()
        if self._depth > 0:
            # unclosed element at end of input: keep what was collected
            self._finalize()


def capture_elements(html: str, tag: str, class_filter: str | None = None) -> list[CapturedElement]:
    parser = _ElementCapture(tag, class_filter)
    parser.feed(html)
    parser.close()
    return parser.captured


def extract_paragraphs(html: str) -> list[str]:
    """Text of every paragraph element in document order, empties dropped."""
    return [el.text for el in capture_elements(html, "p") if el.text]


def extract_paragraph_elements(html: str) -> list[CapturedElement]:
    """Paragraph elements with inner markup retained, empties dropped."""
    return [el for el in capture_elements(html, "p") if el.text]


class _LinkCollector(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            href = dict(attrs).get("href")
            if href:
                self.hrefs.append(href)


def extract_links(html: str) -> list[str]:
    parser = _LinkCollector()
    parser.feed(html)
    parser.close()
    return parser.hrefs


_WAYBACK_TOOLBAR = re.compile(
    r"<!--\s*BEGIN WAYBACK TOOLBAR INSERT\s*-->.*?<!--\s*END WAYBACK TOOLBAR INSERT\s*-->",
    re.DOTALL,
)
_WAYBACK_CHROME_ID = re.compile(r'<div[^>]+id="wm-ipp[^"]*"[^>]*>.*?</div>\s*</div>', re.DOTALL)


def strip_archive_chrome(html: str) -> str:
    """Remove the web-archive playback toolbar injected into archived pages."""
    html = _WAYBACK_TOOLBAR.sub("", html)
    return _WAYBACK_CHROME_ID.sub("", html)
