"""Schema validation and stylesheet transformation for report documents.

The report schema and stylesheet are plain XSD/XSLT assets. This module
interprets the subset of those languages the assets use: nested element
declarations with sequences, occurrence bounds, attributes and simple-content
extensions on the schema side; templates with value-of, for-each, if, text,
literal elements and attribute value templates on the stylesheet side.
Unsupported constructs fail loudly rather than being silently ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date, datetime, time
from html import escape
from xml.etree import ElementTree as ET

from .errors import SchemaViolation, TransformFailure
from .html_text import VOID_TAGS

XSD_NS = "{http://www.w3.org/2001/XMLSchema}"
XSL_NS = "{http://www.w3.org/1999/XSL/Transform}"


# -- schema --------------------------------------------------------------------


@dataclass
class AttrDecl:
    name: str
    type_name: str
    required: bool


@dataclass
class ChildSlot:
    decl: "ElementDecl"
    min_occurs: int
    max_occurs: int | None  # None means unbounded


@dataclass
class ElementDecl:
    name: str
    simple_type: str | None = None  # set for pure simple elements and simpleContent
    attributes: dict[str, AttrDecl] = field(default_factory=dict)
    children: list[ChildSlot] = field(default_factory=list)


def _check_simple_value(type_name: str, value: str) -> bool:
    value = value.strip()
    try:
        if type_name in ("xs:string", "xs:anyURI"):
            return True
        if type_name == "xs:nonNegativeInteger":
            return int(value) >= 0
        if type_name == "xs:date":
            date.fromisoformat(value)
            return True
        if type_name == "xs:time":
            time.fromisoformat(value)
            return True
        if type_name == "xs:dateTime":
            datetime.fromisoformat(value.replace("Z", "+00:00"))
            return True
    except ValueError:
        return False
    raise SchemaViolation(f"schema uses unsupported simple type {type_name}")


def _parse_occurs(node: ET.Element) -> tuple[int, int | None]:
    min_occurs = int(node.get("minOccurs", "1"))
    raw_max = node.get("maxOccurs", "1")
    max_occurs = None if raw_max == "unbounded" else int(raw_max)
    return min_occurs, max_occurs


def _parse_element_decl(node: ET.Element) -> ElementDecl:
    name = node.get("name")
    if not name:
        raise SchemaViolation("schema element declaration without a name")
    type_attr = node.get("type")
    if type_attr:
        return ElementDecl(name=name, simple_type=type_attr)
    complex_type = node.find(f"{XSD_NS}complexType")
    if complex_type is None:
        return ElementDecl(name=name, simple_type="xs:string")
    decl = ElementDecl(name=name)
    simple_content = complex_type.find(f"{XSD_NS}simpleContent")
    if simple_content is not None:
        extension = simple_content.find(f"{XSD_NS}extension")
        if extension is None:
            raise SchemaViolation(f"{name}: simpleContent without extension")
        decl.simple_type = extension.get("base", "xs:string")
        _parse_attribute_decls(extension, decl)
        return decl
    sequence = complex_type.find(f"{XSD_NS}sequence")
    if sequence is not None:
        for child in sequence.findall(f"{XSD_NS}element"):
            min_occurs, max_occurs = _parse_occurs(child)
            decl.children.append(
                ChildSlot(decl=_parse_element_decl(child), min_occurs=min_occurs,
                          max_occurs=max_occurs)
            )
    _parse_attribute_decls(complex_type, decl)
    return decl


def _parse_attribute_decls(node: ET.Element, decl: ElementDecl) -> None:
    """Add the attributes that ``node`` declares to ``decl``."""
    for attr in node.findall(f"{XSD_NS}attribute"):
        decl.attributes[attr.get("name", "")] = AttrDecl(
            name=attr.get("name", ""),
            type_name=attr.get("type", "xs:string"),
            required=attr.get("use") == "required",
        )


class XsdValidator:
    """Validates instance documents against a (subset) XSD schema."""

    def __init__(self, schema_text: str):
        root = ET.fromstring(schema_text)
        if root.tag != f"{XSD_NS}schema":
            raise SchemaViolation("not an XML Schema document")
        self._top: dict[str, ElementDecl] = {}
        for node in root.findall(f"{XSD_NS}element"):
            decl = _parse_element_decl(node)
            self._top[decl.name] = decl

    def validate(self, root: ET.Element) -> None:
        """Raise SchemaViolation describing every problem found, if any."""
        decl = self._top.get(root.tag)
        if decl is None:
            raise SchemaViolation(f"unexpected root element <{root.tag}>")
        errors: list[str] = []
        self._validate_element(root, decl, root.tag, errors)
        if errors:
            raise SchemaViolation("; ".join(errors[:10]))

    def _validate_element(
        self, elem: ET.Element, decl: ElementDecl, path: str, errors: list[str]
    ) -> None:
        declared = decl.attributes
        for name, value in elem.attrib.items():
            attr = declared.get(name)
            if attr is None:
                errors.append(f"{path}: undeclared attribute {name!r}")
            elif not _check_simple_value(attr.type_name, value):
                errors.append(f"{path}: attribute {name!r} is not a valid {attr.type_name}")
        for attr in declared.values():
            if attr.required and attr.name not in elem.attrib:
                errors.append(f"{path}: missing required attribute {attr.name!r}")

        if decl.simple_type is not None:
            if len(elem) > 0:
                errors.append(f"{path}: element must not have children")
            elif not _check_simple_value(decl.simple_type, elem.text or ""):
                errors.append(f"{path}: content is not a valid {decl.simple_type}")
            return

        if (elem.text or "").strip():
            errors.append(f"{path}: unexpected text content")
        kids = list(elem)
        index = 0
        for slot in decl.children:
            count = 0
            while (
                index < len(kids)
                and kids[index].tag == slot.decl.name
                and (slot.max_occurs is None or count < slot.max_occurs)
            ):
                child = kids[index]
                self._validate_element(
                    child, slot.decl, f"{path}/{child.tag}[{count + 1}]", errors
                )
                if (child.tail or "").strip():
                    errors.append(f"{path}: unexpected text after <{child.tag}>")
                index += 1
                count += 1
            if count < slot.min_occurs:
                errors.append(
                    f"{path}: expected at least {slot.min_occurs} <{slot.decl.name}>, got {count}"
                )
        if index < len(kids):
            errors.append(f"{path}: unexpected element <{kids[index].tag}>")


# -- stylesheet ----------------------------------------------------------------


_AVT = re.compile(r"\{([^{}]+)\}")


def _escape_attr(value: str) -> str:
    return escape(value, quote=False).replace('"', "&quot;")


def _eval_string(ctx: ET.Element, path: str) -> str:
    path = path.strip()
    if path.startswith("@"):
        return ctx.get(path[1:], "")
    nodes = ctx.findall(path)
    return "".join(nodes[0].itertext()) if nodes else ""


def _truthy(ctx: ET.Element, expr: str) -> bool:
    expr = expr.strip()
    if expr.startswith("@"):
        return bool(ctx.get(expr[1:], "").strip())
    return bool(ctx.findall(expr)) or bool(_eval_string(ctx, expr).strip())


class XsltRenderer:
    """Applies the report stylesheet to a document tree.

    Supports the template constructs the bundled stylesheet uses; anything
    else raises TransformFailure.
    """

    def __init__(self, stylesheet_text: str):
        sheet = ET.fromstring(stylesheet_text)
        if sheet.tag != f"{XSL_NS}stylesheet":
            raise TransformFailure("not an XSLT stylesheet")
        self._root_template: ET.Element | None = None
        for template in sheet.findall(f"{XSL_NS}template"):
            if template.get("match") == "/":
                self._root_template = template
        if self._root_template is None:
            raise TransformFailure("stylesheet has no template matching '/'")

    def render(self, root: ET.Element) -> str:
        document = ET.Element("(document)")
        document.append(root)
        out: list[str] = []
        try:
            self._instantiate(self._root_template, document, out)
        except TransformFailure:
            raise
        except Exception as exc:  # a path ElementTree cannot evaluate, such as a/@b
            raise TransformFailure(f"stylesheet application failed: {exc}") from exc
        return "<!DOCTYPE html>\n" + "".join(out) + "\n"

    def _instantiate(self, template: ET.Element, ctx: ET.Element, out: list[str]) -> None:
        """Append the escaped output of ``template``'s content at ``ctx`` to ``out``."""
        if template.text and template.text.strip():
            out.append(escape(template.text.strip(), quote=False))
        for node in template:
            self._apply_node(node, ctx, out)
            if node.tail and node.tail.strip():
                out.append(escape(node.tail.strip(), quote=False))

    def _apply_node(self, node: ET.Element, ctx: ET.Element, out: list[str]) -> None:
        tag = node.tag
        if tag == f"{XSL_NS}value-of":
            out.append(escape(_eval_string(ctx, node.get("select", ".")), quote=False))
        elif tag == f"{XSL_NS}text":
            out.append(escape(node.text or "", quote=False))
        elif tag == f"{XSL_NS}for-each":
            for item in ctx.findall(node.get("select", ".").strip()):
                self._instantiate(node, item, out)
        elif tag == f"{XSL_NS}if":
            if _truthy(ctx, node.get("test", "")):
                self._instantiate(node, ctx, out)
        elif tag.startswith(XSL_NS):
            raise TransformFailure(f"unsupported stylesheet instruction {tag}")
        else:
            attrs = ""
            for name, value in node.attrib.items():
                value = _AVT.sub(lambda match: _eval_string(ctx, match.group(1)), value)
                attrs += f' {name}="{_escape_attr(value)}"'
            out.append(f"<{tag}{attrs}>")
            mark = len(out)
            self._instantiate(node, ctx, out)
            # a void element is self-closed only when its content appended nothing,
            # not even an empty value-of
            if tag in VOID_TAGS and len(out) == mark:
                out[-1] = f"<{tag}{attrs}/>"
            else:
                out.append(f"</{tag}>")
