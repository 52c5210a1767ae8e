"""Recursive-descent parser for OpenQASM 2.0 producing flat circuits.

The parser has two stages:

1. syntactic: token stream → :class:`repro.qasm.ast.Program`;
2. elaboration: AST → :class:`repro.core.circuit.Circuit`, flattening
   registers into one qubit index space, broadcasting register-wide gate
   applications, evaluating parameter expressions and inlining user-defined
   gate bodies recursively until only the standard gate set remains.

The standard library ``qelib1.inc`` is built in (its ``include`` is accepted
and ignored); gates like ``ccx`` or ``cswap`` that are not elementary in the
maQAM gate set are expanded into CX + single-qubit networks, exactly as a
ScaffCC / Qiskit unroller would do for the paper's benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.circuit import Circuit
from repro.core.gates import GATE_SET, Gate
from repro.qasm import ast
from repro.qasm.lexer import QasmSyntaxError, Token, tokenize


class QasmError(ValueError):
    """Raised when an OpenQASM program cannot be elaborated into a circuit."""


# --------------------------------------------------------------------------- #
# Stage 1: syntactic parsing
# --------------------------------------------------------------------------- #
class _Parser:
    def __init__(self, text: str):
        self.tokens = list(tokenize(text))
        self.pos = 0

    # Token utilities ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.advance()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value or kind
            raise QasmSyntaxError(
                f"expected {wanted!r}, found {token.value!r}", token.line)
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    # Grammar ---------------------------------------------------------------
    def parse(self) -> ast.Program:
        version = "2.0"
        if self.accept("keyword", "OPENQASM"):
            version_token = self.advance()
            version = version_token.value
            self.expect("symbol", ";")
        statements: list[ast.Statement] = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return ast.Program(version=version, statements=tuple(statements))

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.kind == "keyword":
            handler: dict[str, Callable[[], ast.Statement]] = {
                "include": self.parse_include,
                "qreg": self.parse_qreg,
                "creg": self.parse_creg,
                "gate": self.parse_gate_definition,
                "opaque": self.parse_opaque,
                "measure": self.parse_measure,
                "reset": self.parse_reset,
                "barrier": self.parse_barrier,
                "if": self.parse_if,
            }
            if token.value in handler:
                return handler[token.value]()
        if token.kind == "id":
            return self.parse_gate_call()
        raise QasmSyntaxError(f"unexpected token {token.value!r}", token.line)

    def parse_include(self) -> ast.Statement:
        line = self.expect("keyword", "include").line
        filename = self.expect("string").value.strip('"')
        self.expect("symbol", ";")
        return ast.Include(filename, line=line)

    def _parse_sized_decl(self) -> tuple[str, int, int]:
        token = self.advance()  # qreg / creg keyword already checked by caller
        name = self.expect("id").value
        self.expect("symbol", "[")
        size = int(self.expect("int").value)
        self.expect("symbol", "]")
        self.expect("symbol", ";")
        return name, size, token.line

    def parse_qreg(self) -> ast.Statement:
        name, size, line = self._parse_sized_decl()
        return ast.QregDecl(name, size, line=line)

    def parse_creg(self) -> ast.Statement:
        name, size, line = self._parse_sized_decl()
        return ast.CregDecl(name, size, line=line)

    def parse_gate_definition(self) -> ast.Statement:
        line = self.expect("keyword", "gate").line
        name = self.expect("id").value
        params: list[str] = []
        if self.accept("symbol", "("):
            if not self.accept("symbol", ")"):
                params.append(self.expect("id").value)
                while self.accept("symbol", ","):
                    params.append(self.expect("id").value)
                self.expect("symbol", ")")
        qargs = [self.expect("id").value]
        while self.accept("symbol", ","):
            qargs.append(self.expect("id").value)
        self.expect("symbol", "{")
        body: list[ast.GateCall] = []
        while not self.accept("symbol", "}"):
            token = self.peek()
            if token.kind == "keyword" and token.value == "barrier":
                # Barriers inside gate bodies are scheduling hints; skip them.
                self.parse_barrier()
                continue
            statement = self.parse_gate_call()
            body.append(statement)
        return ast.GateDefinition(name, tuple(params), tuple(qargs), tuple(body), line=line)

    def parse_opaque(self) -> ast.Statement:
        line = self.expect("keyword", "opaque").line
        name = self.expect("id").value
        params: list[str] = []
        if self.accept("symbol", "("):
            if not self.accept("symbol", ")"):
                params.append(self.expect("id").value)
                while self.accept("symbol", ","):
                    params.append(self.expect("id").value)
                self.expect("symbol", ")")
        qargs = [self.expect("id").value]
        while self.accept("symbol", ","):
            qargs.append(self.expect("id").value)
        self.expect("symbol", ";")
        return ast.OpaqueDeclaration(name, tuple(params), tuple(qargs), line=line)

    def parse_measure(self) -> ast.Statement:
        line = self.expect("keyword", "measure").line
        source = self.parse_register_ref()
        self.expect("arrow")
        destination = self.parse_register_ref()
        self.expect("symbol", ";")
        return ast.Measure(source, destination, line=line)

    def parse_reset(self) -> ast.Statement:
        line = self.expect("keyword", "reset").line
        target = self.parse_register_ref()
        self.expect("symbol", ";")
        return ast.Reset(target, line=line)

    def parse_barrier(self) -> ast.Statement:
        line = self.expect("keyword", "barrier").line
        operands = [self.parse_register_ref()]
        while self.accept("symbol", ","):
            operands.append(self.parse_register_ref())
        self.expect("symbol", ";")
        return ast.Barrier(tuple(operands), line=line)

    def parse_if(self) -> ast.Statement:
        line = self.expect("keyword", "if").line
        self.expect("symbol", "(")
        register = self.expect("id").value
        self.expect("eq")
        value = int(self.expect("int").value)
        self.expect("symbol", ")")
        operation = self.parse_statement()
        return ast.IfStatement(register, value, operation, line=line)

    def parse_gate_call(self) -> ast.GateCall:
        name_token = self.expect("id")
        params: list[ast.Expr] = []
        if self.accept("symbol", "("):
            if not self.accept("symbol", ")"):
                params.append(self.parse_expression())
                while self.accept("symbol", ","):
                    params.append(self.parse_expression())
                self.expect("symbol", ")")
        operands = [self.parse_register_ref()]
        while self.accept("symbol", ","):
            operands.append(self.parse_register_ref())
        self.expect("symbol", ";")
        return ast.GateCall(name_token.value, tuple(params), tuple(operands),
                            line=name_token.line)

    def parse_register_ref(self) -> ast.RegisterRef:
        name = self.expect("id").value
        index: int | None = None
        if self.accept("symbol", "["):
            index = int(self.expect("int").value)
            self.expect("symbol", "]")
        return ast.RegisterRef(name, index)

    # Expressions ------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_additive()

    def parse_additive(self) -> ast.Expr:
        node = self.parse_multiplicative()
        while True:
            if self.accept("symbol", "+"):
                node = ast.BinaryOp("+", node, self.parse_multiplicative())
            elif self.accept("symbol", "-"):
                node = ast.BinaryOp("-", node, self.parse_multiplicative())
            else:
                return node

    def parse_multiplicative(self) -> ast.Expr:
        node = self.parse_unary()
        while True:
            if self.accept("symbol", "*"):
                node = ast.BinaryOp("*", node, self.parse_unary())
            elif self.accept("symbol", "/"):
                node = ast.BinaryOp("/", node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> ast.Expr:
        if self.accept("symbol", "-"):
            return ast.UnaryOp("-", self.parse_unary())
        if self.accept("symbol", "+"):
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> ast.Expr:
        node = self.parse_atom()
        if self.accept("symbol", "^"):
            return ast.BinaryOp("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> ast.Expr:
        token = self.peek()
        if token.kind in ("int", "real"):
            self.advance()
            return ast.Number(float(token.value))
        if token.kind == "keyword" and token.value == "pi":
            self.advance()
            return ast.Number(math.pi)
        if token.kind == "id":
            self.advance()
            if token.value in _FUNCTIONS and self.peek().value == "(":
                self.expect("symbol", "(")
                argument = self.parse_expression()
                self.expect("symbol", ")")
                return ast.FunctionCall(token.value, argument)
            return ast.Identifier(token.value)
        if self.accept("symbol", "("):
            node = self.parse_expression()
            self.expect("symbol", ")")
            return node
        raise QasmSyntaxError(f"unexpected token {token.value!r} in expression", token.line)


_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}


def evaluate_expr(expr: ast.Expr, bindings: dict[str, float]) -> float:
    """Evaluate a parameter expression with formal-parameter bindings."""
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Identifier):
        if expr.name in bindings:
            return bindings[expr.name]
        raise QasmError(f"unbound parameter {expr.name!r}")
    if isinstance(expr, ast.UnaryOp):
        value = evaluate_expr(expr.operand, bindings)
        return -value if expr.op == "-" else value
    if isinstance(expr, ast.BinaryOp):
        left = evaluate_expr(expr.left, bindings)
        right = evaluate_expr(expr.right, bindings)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
        if expr.op == "^":
            return left ** right
        raise QasmError(f"unknown operator {expr.op!r}")
    if isinstance(expr, ast.FunctionCall):
        return _FUNCTIONS[expr.name](evaluate_expr(expr.argument, bindings))
    raise QasmError(f"cannot evaluate expression node {expr!r}")


def _evaluate_params(call: ast.GateCall,
                     bindings: dict[str, float]) -> tuple[float, ...]:
    """The parameters of ``call``, evaluated; each must be a finite number.

    A literal such as ``1e999`` evaluates to ``inf`` (and ``1e999-1e999`` to
    ``nan``), which no gate can apply and the exporter cannot write back.
    """
    params = tuple(evaluate_expr(p, bindings) for p in call.params)
    for value in params:
        if not math.isfinite(value):
            raise QasmError(f"line {call.line}: parameter of gate {call.name!r} "
                            f"evaluates to {value!r}; gate parameters must be "
                            "finite")
    return params


# --------------------------------------------------------------------------- #
# Built-in composite gates (the part of qelib1.inc not elementary in maQAM)
# --------------------------------------------------------------------------- #
_QELIB_EXTRA = """
gate ccx a,b,c
{
  h c; cx b,c; tdg c; cx a,c; t c; cx b,c; tdg c; cx a,c;
  t b; t c; h c; cx a,b; t a; tdg b; cx a,b;
}
gate cswap a,b,c
{
  cx c,b; ccx a,b,c; cx c,b;
}
gate c3x a,b,c,d
{
  h d; cu1(pi/8) a,d; cx a,b; cu1(-pi/8) b,d; cx a,b; cu1(pi/8) b,d;
  cx b,c; cu1(-pi/8) c,d; cx a,c; cu1(pi/8) c,d; cx b,c; cu1(-pi/8) c,d;
  cx a,c; cu1(pi/8) c,d; h d;
}
gate rccx a,b,c
{
  u2(0,pi) c; u1(pi/4) c; cx b,c; u1(-pi/4) c; cx a,c;
  u1(pi/4) c; cx b,c; u1(-pi/4) c; u2(0,pi) c;
}
"""


def _builtin_definitions() -> dict[str, ast.GateDefinition]:
    program = _Parser(_QELIB_EXTRA).parse()
    return program.gate_definitions()


# --------------------------------------------------------------------------- #
# Stage 2: elaboration into a flat Circuit
# --------------------------------------------------------------------------- #
class _Elaborator:
    def __init__(self, program: ast.Program, name: str):
        self.program = program
        self.name = name
        self.qreg_offsets: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.creg_offsets: dict[str, tuple[int, int]] = {}
        self.definitions = _builtin_definitions()
        self.definitions.update(program.gate_definitions())
        self.opaque: set[str] = {
            s.name for s in program.statements if isinstance(s, ast.OpaqueDeclaration)
        }

    def elaborate(self) -> Circuit:
        num_qubits = 0
        num_clbits = 0
        for statement in self.program.statements:
            if isinstance(statement, ast.QregDecl):
                self.qreg_offsets[statement.name] = (num_qubits, statement.size)
                num_qubits += statement.size
            elif isinstance(statement, ast.CregDecl):
                self.creg_offsets[statement.name] = (num_clbits, statement.size)
                num_clbits += statement.size
        circuit = Circuit(num_qubits, num_clbits, name=self.name)
        for statement in self.program.statements:
            self._emit_statement(statement, circuit)
        return circuit

    # Operand resolution -----------------------------------------------------
    def _qubit_indices(self, ref: ast.RegisterRef) -> list[int]:
        if ref.name not in self.qreg_offsets:
            raise QasmError(f"unknown quantum register {ref.name!r}")
        offset, size = self.qreg_offsets[ref.name]
        if ref.index is None:
            return list(range(offset, offset + size))
        if not 0 <= ref.index < size:
            raise QasmError(f"index {ref.index} out of range for qreg {ref.name}[{size}]")
        return [offset + ref.index]

    def _clbit_indices(self, ref: ast.RegisterRef) -> list[int]:
        if ref.name not in self.creg_offsets:
            raise QasmError(f"unknown classical register {ref.name!r}")
        offset, size = self.creg_offsets[ref.name]
        if ref.index is None:
            return list(range(offset, offset + size))
        if not 0 <= ref.index < size:
            raise QasmError(f"index {ref.index} out of range for creg {ref.name}[{size}]")
        return [offset + ref.index]

    # Statement emission -------------------------------------------------------
    def _emit_statement(self, statement: ast.Statement, circuit: Circuit) -> None:
        if isinstance(statement, (ast.QregDecl, ast.CregDecl, ast.Include,
                                  ast.GateDefinition, ast.OpaqueDeclaration)):
            return
        if isinstance(statement, ast.GateCall):
            self._emit_gate_call(statement, circuit)
        elif isinstance(statement, ast.Measure):
            self._emit_measure(statement, circuit)
        elif isinstance(statement, ast.Reset):
            for q in self._qubit_indices(statement.target):
                circuit.append(Gate("reset", (q,)))
        elif isinstance(statement, ast.Barrier):
            qubits: list[int] = []
            for ref in statement.operands:
                qubits.extend(self._qubit_indices(ref))
            circuit.append(Gate("barrier", tuple(qubits)))
        elif isinstance(statement, ast.IfStatement):
            # Classical control cannot be resolved statically; the guarded
            # operation is emitted unconditionally, which is the conservative
            # choice for routing and scheduling purposes.
            self._emit_statement(statement.operation, circuit)
        else:  # pragma: no cover - defensive
            raise QasmError(f"unsupported statement {statement!r}")

    def _emit_measure(self, statement: ast.Measure, circuit: Circuit) -> None:
        sources = self._qubit_indices(statement.source)
        destinations = self._clbit_indices(statement.destination)
        if len(sources) != len(destinations):
            if len(destinations) == 1:
                destinations = destinations * len(sources)
            else:
                raise QasmError("measure operand sizes do not match")
        for q, c in zip(sources, destinations):
            circuit.append(Gate("measure", (q,), cbits=(c,)))

    def _emit_gate_call(self, call: ast.GateCall, circuit: Circuit) -> None:
        params = _evaluate_params(call, {})
        operand_lists = [self._qubit_indices(ref) for ref in call.operands]
        lengths = {len(ops) for ops in operand_lists}
        broadcast = max(lengths) if lengths else 1
        if lengths - {1, broadcast}:
            raise QasmError(f"cannot broadcast operands of gate {call.name!r}")
        for i in range(broadcast):
            qubits = tuple(ops[i] if len(ops) > 1 else ops[0] for ops in operand_lists)
            self._emit_resolved(call.name, params, qubits, circuit, depth=0)

    def _emit_resolved(self, name: str, params: tuple[float, ...],
                       qubits: tuple[int, ...], circuit: Circuit, depth: int) -> None:
        if depth > 32:
            raise QasmError(f"gate definition for {name!r} nests too deeply")
        lname = name.lower()
        if lname in GATE_SET and GATE_SET[lname].num_qubits == len(qubits):
            circuit.append(Gate(lname, qubits, params))
            return
        if name in self.definitions:
            definition = self.definitions[name]
            if len(definition.qargs) != len(qubits):
                raise QasmError(
                    f"gate {name!r} expects {len(definition.qargs)} qubits, got {len(qubits)}")
            if len(definition.params) != len(params):
                raise QasmError(
                    f"gate {name!r} expects {len(definition.params)} params, got {len(params)}")
            bindings = dict(zip(definition.params, params))
            qubit_map = dict(zip(definition.qargs, qubits))
            for inner in definition.body:
                inner_params = _evaluate_params(inner, bindings)
                inner_qubits = []
                for ref in inner.operands:
                    if ref.name not in qubit_map:
                        raise QasmError(
                            f"gate {name!r} body references unknown qubit {ref.name!r}")
                    inner_qubits.append(qubit_map[ref.name])
                self._emit_resolved(inner.name, inner_params, tuple(inner_qubits),
                                    circuit, depth + 1)
            return
        if name in self.opaque:
            raise QasmError(f"opaque gate {name!r} cannot be elaborated")
        raise QasmError(f"unknown gate {name!r}")


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def parse_qasm(text: str, name: str = "qasm_circuit") -> Circuit:
    """Parse OpenQASM 2.0 source into a flat :class:`Circuit`."""
    try:
        program = _Parser(text).parse()
    except QasmSyntaxError as exc:
        raise QasmError(str(exc)) from exc
    return _Elaborator(program, name).elaborate()


def parse_qasm_file(path) -> Circuit:
    """Parse an OpenQASM file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    import os

    return parse_qasm(text, name=os.path.splitext(os.path.basename(str(path)))[0])
