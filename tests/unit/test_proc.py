"""Unit tests for generator-coroutine tasks."""

from repro.simnet.proc import Task, TaskState


def run_gen(engine, gen, handler=None, epoch=0):
    task = Task(engine, gen, handler or (lambda t, e: t.resume(None)), epoch=epoch)
    task.start()
    return task


class TestTaskLifecycle:
    def test_completion_captures_return_value(self, engine):
        def gen():
            yield "effect"
            return 42

        task = run_gen(engine, gen())
        engine.run()
        assert task.state is TaskState.DONE and task.result == 42

    def test_effects_reach_handler(self, engine):
        seen = []

        def handler(task, effect):
            seen.append(effect)
            task.resume(effect * 2)

        def gen():
            a = yield 1
            b = yield 2
            return a + b

        task = run_gen(engine, gen(), handler)
        engine.run()
        assert seen == [1, 2] and task.result == 6

    def test_resume_with_delay_advances_clock(self, engine):
        times = []

        def handler(task, effect):
            task.resume(None, delay=effect)

        def gen():
            yield 1.0
            times.append(engine.now)
            yield 2.0
            times.append(engine.now)

        run_gen(engine, gen(), handler)
        engine.run()
        assert times == [1.0, 3.0]

    def test_exception_captured(self, engine):
        def gen():
            yield 1
            raise ValueError("boom")

        task = run_gen(engine, gen())
        engine.run()
        assert task.state is TaskState.FAILED
        assert isinstance(task.error, ValueError)

    def test_on_done_callback(self, engine):
        done = []

        def gen():
            yield 1
            return "x"

        task = run_gen(engine, gen())
        task.on_done = lambda t: done.append(t.result)
        engine.run()
        assert done == ["x"]


class TestKillAndEpochs:
    def test_kill_prevents_further_steps(self, engine):
        progressed = []

        def handler(task, effect):
            task.resume(None, delay=1.0)

        def gen():
            yield 1
            progressed.append("after")

        task = run_gen(engine, gen(), handler)
        engine.schedule(0.5, task.kill)
        engine.run()
        assert task.state is TaskState.KILLED
        assert progressed == []

    def test_stale_epoch_resume_is_dropped(self, engine):
        def handler(task, effect):
            pass  # park forever

        def gen():
            yield 1
            yield 2

        task = run_gen(engine, gen(), handler)
        engine.run()
        # park on first effect; now a resume captured at epoch 0
        task.resume("stale", delay=1.0)
        task.epoch += 1  # incarnation happened
        engine.run()
        assert task.state is TaskState.WAITING  # stale resume ignored

    def test_kill_finished_task_is_noop(self, engine):
        def gen():
            return 1
            yield  # pragma: no cover

        task = run_gen(engine, gen())
        engine.run()
        assert task.state is TaskState.DONE
        task.kill()
        assert task.state is TaskState.DONE

    def test_double_start_rejected(self, engine):
        import pytest

        def gen():
            yield 1

        task = run_gen(engine, gen())
        with pytest.raises(RuntimeError):
            task.start()
