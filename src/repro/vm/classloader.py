"""Class loading and linking.

The loader owns the set of :class:`ClassFile` definitions visible to one
VM (its "classpath") and the cache of linked :class:`VMClass` objects.

Two hooks make on-demand *code migration* work (paper section III.A):

* ``missing_class_hook(name) -> ClassFile`` — called when a class is not
  on the local classpath; a worker VM installs a hook that fetches the
  class file from the home node over the network (charging transfer
  time), mirroring ``JVMTI_EVENT_CLASS_FILE_LOAD_HOOK``.
* ``load_listener(vmclass)`` — notified after a class links; migration
  engines use it to charge class-load costs and to implement
  JESSICA2-style allocate-statics-at-load behaviour.

Class-loader **namespaces** (:class:`Namespace`) give a guest context
its own linked-class table — and therefore its own static cells — the
way real JVMs isolate per-webapp state with per-context class loaders.
A namespace shares its parent's classpath *object* (class files are
immutable and node-wide: a class fetched by any context is on the
classpath for all) and its hooks, but links classes independently, so
two requests running the same statics-bearing program never touch each
other's cells.  The root loader is itself the default namespace
(``tag=None``); everything single-tenant keeps working unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.bytecode.code import ClassFile
from repro.errors import LinkError
from repro.lang.codegen import builtin_exception_classes
from repro.vm.objects import VMClass


class ClassLoader:
    """Per-VM class loader (the root namespace)."""

    #: namespace tag: ``None`` for the root loader, the namespace's
    #: name for :class:`Namespace` instances.  Linked :class:`VMClass`
    #: objects inherit it, so any holder of a class knows which
    #: namespace owns its static cells.
    tag: Optional[str] = None

    def __init__(self, classpath: Optional[Dict[str, ClassFile]] = None,
                 include_builtins: bool = True):
        self._classpath: Dict[str, ClassFile] = dict(classpath or {})
        if include_builtins:
            for name, cf in builtin_exception_classes().items():
                self._classpath.setdefault(name, cf)
        self._loaded: Dict[str, VMClass] = {}
        self.missing_class_hook: Optional[Callable[[str], ClassFile]] = None
        self.load_listener: Optional[Callable[[VMClass], None]] = None

    def is_loaded(self, name: str) -> bool:
        return name in self._loaded

    def has_classfile(self, name: str) -> bool:
        """Whether ``name`` is already on this VM's classpath (defined
        locally or fetched earlier) — the migration fast path's class
        cache: class files are immutable once defined, so presence
        means a sender can ship a digest token instead of the bytes."""
        return name in self._classpath

    def loaded_classes(self) -> Dict[str, VMClass]:
        """Snapshot of linked classes (name -> VMClass)."""
        return dict(self._loaded)

    def classfile(self, name: str) -> ClassFile:
        """The raw class file for ``name`` (fetching if necessary)."""
        cf = self._classpath.get(name)
        if cf is None:
            if self.missing_class_hook is None:
                raise LinkError(f"class not found: {name}")
            cf = self.missing_class_hook(name)
            if cf is None:
                raise LinkError(f"class not found: {name}")
            self._classpath[name] = cf
        return cf

    def load(self, name: str) -> VMClass:
        """Link ``name`` (and its superclass chain), running hooks."""
        cls = self._loaded.get(name)
        if cls is not None:
            return cls
        cf = self.classfile(name)
        superclass = None
        if cf.superclass is not None:
            if cf.superclass == name:
                raise LinkError(f"class {name} extends itself")
            superclass = self.load(cf.superclass)
        cls = VMClass(cf, superclass, namespace=self.tag)
        self._loaded[name] = cls
        if self.load_listener is not None:
            self.load_listener(cls)
        return cls


class Namespace(ClassLoader):
    """A class-loader namespace: its own linked-class table (and thus
    its own static cells) over a parent loader's shared classpath.

    * the classpath dict is *shared by reference* with the parent —
      a class fetched on demand through any namespace makes the
      (immutable) file available to all of them;
    * ``missing_class_hook`` / ``load_listener`` delegate to the
      parent, so a worker VM's fetch-from-home wiring covers every
      namespace without per-namespace installs;
    * linking is fully independent: ``load`` builds fresh
      :class:`VMClass` objects whose ``statics`` dicts belong to this
      namespace only.
    """

    def __init__(self, parent: ClassLoader, tag: str):
        self.parent = parent
        self.tag = tag
        self._classpath = parent._classpath  # shared, by reference
        self._loaded = {}

    @property
    def missing_class_hook(self):
        return self.parent.missing_class_hook

    @property
    def load_listener(self):
        return self.parent.load_listener
