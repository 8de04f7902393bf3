"""Code-pointer remapping across versions (function relocation tags)."""

import pytest

from repro.kernel import Kernel, sim_function
from repro.mcr.ctl import McrCtl
from repro.mcr.libmcr import MCRSession
from repro.mcr.tracing.transfer import StateTransfer
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.runtime.program import GlobalVar
from repro.servers import simple
from repro.types.descriptors import FuncType, PointerType
from repro.workloads.client import connect_with_retry, recv_line

from tests.helpers import boot_test_program, make_test_program


class TestTextSegment:
    def test_functions_get_text_symbols(self):
        program = make_test_program([GlobalVar("g", PointerType(None))])
        program.functions = ["alpha", "beta"]
        kernel, session, proc = boot_test_program(program)
        alpha = proc.symbols.lookup("alpha")
        beta = proc.symbols.lookup("beta")
        assert alpha.section == "text" and beta.section == "text"
        assert alpha.address != beta.address

    def test_func_addr_rejects_data_symbols(self):
        program = make_test_program([GlobalVar("g", PointerType(None))])
        program.functions = ["alpha"]
        kernel, session, proc = boot_test_program(program)
        with pytest.raises(KeyError):
            proc.crt.func_addr("g")

    def test_layout_differs_across_versions(self):
        kernel = Kernel()
        p1 = make_test_program([], version="1")
        p1.functions = ["alpha"]
        p2 = make_test_program([], version="2")
        p2.functions = ["alpha"]
        _k, _s, old = boot_test_program(p1, kernel=kernel)
        _k, _s, new = boot_test_program(p2, kernel=kernel)
        assert old.symbols.lookup("alpha").address != new.symbols.lookup("alpha").address


class TestCodePointerTransfer:
    def test_function_pointer_remapped_by_symbol(self):
        kernel = Kernel()
        handler_ptr = PointerType(FuncType("handler"), name="handler*")
        p1 = make_test_program([GlobalVar("dispatch", handler_ptr)], version="1")
        p1.functions = ["on_request", "on_close"]
        p2 = make_test_program([GlobalVar("dispatch", handler_ptr)], version="2")
        p2.functions = ["on_request", "on_close"]
        _k, _s, old = boot_test_program(p1, kernel=kernel)
        _k, _s, new = boot_test_program(p2, kernel=kernel)
        old.crt.gset("dispatch", old.crt.func_addr("on_close"))  # dirty
        StateTransfer(old, new, p2).run()
        assert new.crt.gget("dispatch") == new.crt.func_addr("on_close")
        assert new.crt.gget("dispatch") != old.crt.func_addr("on_close")

    def test_simple_server_handler_fn_survives_update(self, kernel):
        simple.setup_world(kernel)
        program = simple.make_program(1)
        session = MCRSession(kernel, program, BuildConfig.full())
        root = load_program(kernel, program, build=BuildConfig.full(), session=session)
        replies = []

        @sim_function
        def client(sys):
            fd = yield from connect_with_retry(sys, 8080)
            yield from sys.send(fd, b"push 1\n")
            line = yield from recv_line(sys, fd)
            replies.append(line.decode().strip())
            yield from sys.close(fd)

        kernel.spawn_process(client)
        kernel.run(max_steps=300_000, until=lambda: bool(replies))
        old_fn = root.crt.gget("handler_fn")
        assert old_fn == root.crt.func_addr("server_handle_event")
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.committed, result.error
        new_root = result.new_root
        new_fn = new_root.crt.gget("handler_fn")
        # Remapped to the NEW version's text layout, not copied.
        assert new_fn == new_root.crt.func_addr("server_handle_event")
        assert new_fn != old_fn
